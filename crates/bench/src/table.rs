//! Paper-style text tables (mix rows × scheme columns).

/// Accumulates a rows × columns table of numbers and prints it aligned,
/// matching the layout of the paper's figures (one row per workload, one
/// column per scheme, AVG last).
#[derive(Debug, Default)]
pub struct TableWriter {
    columns: Vec<String>,
    rows: Vec<(String, Vec<Option<f64>>)>,
    precision: usize,
}

impl TableWriter {
    /// A table with the given column headers.
    #[must_use]
    pub fn new(columns: &[&str], precision: usize) -> Self {
        Self {
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            precision,
        }
    }

    /// Appends a row; `values.len()` must match the column count.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn row(&mut self, label: &str, values: Vec<Option<f64>>) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push((label.to_string(), values));
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len().max(self.precision + 4))
            .collect::<Vec<_>>();
        let mut out = String::new();
        out.push_str(&format!("{:label_w$}", ""));
        for (c, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&format!("{label:label_w$}"));
            for (v, w) in values.iter().zip(&col_w) {
                match v {
                    Some(x) => out.push_str(&format!("  {x:>w$.p$}", p = self.precision)),
                    None => out.push_str(&format!("  {:>w$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders rows as CSV lines (label first).
    #[must_use]
    pub fn csv_rows(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|(label, values)| {
                let mut cells = vec![label.clone()];
                cells.extend(values.iter().map(|v| match v {
                    Some(x) => format!("{x:.6}"),
                    None => String::new(),
                }));
                cells.join(",")
            })
            .collect()
    }

    /// CSV header line (label column + data columns).
    #[must_use]
    pub fn csv_header(&self) -> String {
        let mut cells = vec!["workload".to_string()];
        cells.extend(self.columns.iter().cloned());
        cells.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_rows() {
        let mut t = TableWriter::new(&["BASE", "CAMPS-MOD"], 3);
        t.row("HM1", vec![Some(1.0), Some(1.25)]);
        t.row("AVG", vec![Some(1.0), None]);
        let s = t.render();
        assert!(s.contains("BASE"));
        assert!(s.contains("1.250"));
        assert!(s.lines().count() == 3);
        assert!(s.contains('-'));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = TableWriter::new(&["A"], 2);
        t.row("r1", vec![Some(0.5)]);
        assert_eq!(t.csv_header(), "workload,A");
        assert_eq!(t.csv_rows(), vec!["r1,0.500000".to_string()]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_length_checked() {
        let mut t = TableWriter::new(&["A", "B"], 2);
        t.row("r", vec![Some(1.0)]);
    }
}

/// Renders a labeled horizontal ASCII bar chart — Figure 5 uses
/// it to echo the paper's bar plots in the terminal.
///
/// `rows` are `(label, value)`; bars are scaled to `width` columns against
/// the maximum value.
#[must_use]
pub fn bar_chart(rows: &[(String, f64)], width: usize, unit: &str) -> String {
    let max = rows.iter().map(|&(_, v)| v).fold(f64::EPSILON, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let filled = ((value / max) * width as f64).round().max(0.0) as usize;
        out.push_str(&format!(
            "{label:label_w$}  {:<width$}  {value:.3}{unit}\n",
            "#".repeat(filled.min(width)),
        ));
    }
    out
}

#[cfg(test)]
mod bar_tests {
    use super::bar_chart;

    #[test]
    fn bars_scale_to_max() {
        let rows = vec![("a".to_string(), 1.0), ("bb".to_string(), 2.0)];
        let s = bar_chart(&rows, 10, "x");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("##########"), "max bar fills the width");
        assert!(lines[0].contains("#####"), "half bar is half the width");
        assert!(lines[0].starts_with("a "));
        assert!(s.contains("2.000x"));
    }

    #[test]
    fn empty_and_zero_values_are_safe() {
        assert_eq!(bar_chart(&[], 10, ""), "");
        let s = bar_chart(&[("z".to_string(), 0.0)], 10, "");
        assert!(s.contains("0.000"));
    }
}
