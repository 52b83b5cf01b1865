//! Result tables: aligned console printing plus CSV export.
//!
//! Every experiment bench prints the paper's rows/series to stdout and
//! writes the same table to `target/experiments/<name>.csv` so results can
//! be diffed across runs and plotted externally.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple rectangular result table.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table name (used for the CSV file stem and the printed header).
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

    /// Serializes the table as CSV (headers + rows, RFC-4180 quoting for
    /// cells containing separators).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|c| csv_cell(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter()
                    .map(|c| csv_cell(c))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        out
    }

    /// Writes the CSV under `dir/<name>.csv`, creating the directory.
    pub fn write_csv_in(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", sanitize(&self.name)));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Writes the CSV to the workspace-standard `target/experiments/`.
    pub fn write_csv(&self) -> io::Result<PathBuf> {
        self.write_csv_in(Path::new("target/experiments"))
    }
}

fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
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

    #[test]
    fn csv_roundtrip_quoting() {
        let mut t = ResultTable::new("q", &["x"]);
        t.push_row(["he,llo"]);
        t.push_row(["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"he,llo\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = lis_core::scratch::ScratchDir::new("export").unwrap();
        let path = table().write_csv_in(&dir.path().join("nested")).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,bbbb,c"));
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("fig 5/uniform"), "fig_5_uniform");
    }
}
