//! Paper-style table and CSV output for the figure binaries.
//!
//! Each figure in the paper is a set of *series* (one per algorithm)
//! over a common x-axis (thread counts). [`Figure`] collects the points
//! and renders an aligned text table (the "same rows/series the paper
//! reports") and an ASCII plot. [`Table`] is what a CSV holds: key
//! columns, then numbers, one row per line. A figure is its wide form
//! ([`Figure::table`]); a long table has one row per measured cell.

use std::fmt::Write as _;

/// One figure's data: an x-axis plus named series.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title (e.g. "Fig 2, Emerald-style, 100% updates").
    pub title: String,
    /// X-axis label (always "#threads" in the paper).
    pub x_label: String,
    /// X-axis values.
    pub xs: Vec<usize>,
    /// `(series name, y values aligned with xs)`.
    pub series: Vec<(String, Vec<f64>)>,
    /// Extra per-x columns carried alongside the plotted series —
    /// counters in a different unit (e.g. the elastic-sharding
    /// `grows`/`shrinks` resize totals). Emitted by
    /// [`table`](Self::table) after the main series and
    /// listed as a footnote block by [`render_table`](Self::render_table),
    /// but never plotted (their scale is unrelated to the y-axis).
    pub extras: Vec<(String, Vec<f64>)>,
    /// Y-axis unit for display.
    pub y_unit: String,
}

impl Figure {
    /// Creates an empty figure over the given thread counts.
    pub fn new(title: impl Into<String>, xs: Vec<usize>) -> Self {
        Self {
            title: title.into(),
            x_label: "#threads".into(),
            xs,
            series: Vec::new(),
            extras: Vec::new(),
            y_unit: "Mops/s".into(),
        }
    }

    /// Sets the y-axis unit label (builder style). The default is
    /// `"Mops/s"`, which fits every throughput figure; ablations that
    /// plot degrees or percentages should relabel.
    pub fn y_unit(mut self, unit: impl Into<String>) -> Self {
        self.y_unit = unit.into();
        self
    }

    /// Appends a series; `ys.len()` must equal `self.xs.len()`.
    pub fn add_series(&mut self, name: impl Into<String>, ys: Vec<f64>) {
        assert_eq!(
            ys.len(),
            self.xs.len(),
            "series length must match the x-axis"
        );
        self.series.push((name.into(), ys));
    }

    /// Appends an extra (non-plotted) per-x column — e.g. the
    /// `SEC_Ada1to5_grows` resize counter; `ys.len()` must equal
    /// `self.xs.len()`.
    pub fn add_extra(&mut self, name: impl Into<String>, ys: Vec<f64>) {
        assert_eq!(
            ys.len(),
            self.xs.len(),
            "extra column length must match the x-axis"
        );
        self.extras.push((name.into(), ys));
    }

    /// Renders the aligned text table the binaries print.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} ({})", self.title, self.y_unit);
        // Header.
        let _ = write!(out, "{:>10}", self.x_label);
        for (name, _) in &self.series {
            let _ = write!(out, " {name:>10}");
        }
        let _ = writeln!(out);
        // Rows.
        for (i, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x:>10}");
            for (_, ys) in &self.series {
                let _ = write!(out, " {:>10.3}", ys[i]);
            }
            let _ = writeln!(out);
        }
        // Winner line: who wins at the largest thread count, by what
        // factor over the runner-up (the paper's headline comparisons).
        if let Some(last) = self.xs.len().checked_sub(1) {
            let mut at_max: Vec<(&str, f64)> = self
                .series
                .iter()
                .map(|(n, ys)| (n.as_str(), ys[last]))
                .collect();
            at_max.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            if at_max.len() >= 2 && at_max[1].1 > 0.0 {
                let _ = writeln!(
                    out,
                    "#  at {} threads: {} leads {} by {:.2}x",
                    self.xs[last],
                    at_max[0].0,
                    at_max[1].0,
                    at_max[0].1 / at_max[1].1
                );
            }
        }
        // Extra (unplotted) columns as a footnote block.
        if !self.extras.is_empty() {
            let _ = write!(out, "#  counters:{:>8}", self.x_label);
            for (name, _) in &self.extras {
                let _ = write!(out, " {name:>18}");
            }
            let _ = writeln!(out);
            for (i, x) in self.xs.iter().enumerate() {
                let _ = write!(out, "#  {x:>17}");
                for (_, ys) in &self.extras {
                    let _ = write!(out, " {:>18.1}", ys[i]);
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Renders a terminal plot of the figure: one column per x value,
    /// one letter per series (legend below), y linearly scaled into
    /// `height` rows. The shape-reading companion to
    /// [`render_table`](Self::render_table) — crossovers and scaling
    /// trends are visible at a glance, as in the paper's figures.
    pub fn render_ascii_plot(&self, height: usize) -> String {
        let height = height.max(4);
        let mut out = String::new();
        if self.series.is_empty() || self.xs.is_empty() {
            let _ = writeln!(out, "## {} — no data", self.title);
            return out;
        }
        let y_max = self
            .series
            .iter()
            .flat_map(|(_, ys)| ys.iter().copied())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);

        // Marker per series: A, B, C, …
        let marker = |s: usize| (b'A' + (s % 26) as u8) as char;
        // Column width per x point.
        const COL: usize = 6;
        let width = self.xs.len() * COL;

        let _ = writeln!(
            out,
            "## {} — {} (plot, y-max {:.3})",
            self.title, self.y_unit, y_max
        );
        let mut grid = vec![vec![' '; width]; height];
        for (si, (_, ys)) in self.series.iter().enumerate() {
            for (xi, &y) in ys.iter().enumerate() {
                let row_f = (y / y_max) * (height - 1) as f64;
                let row = height - 1 - (row_f.round() as usize).min(height - 1);
                let col = xi * COL + COL / 2;
                // Overlapping points: keep the first marker, mark the
                // collision with '*' only if different series collide.
                let cell = &mut grid[row][col];
                *cell = match *cell {
                    ' ' => marker(si),
                    c if c == marker(si) => c,
                    _ => '*',
                };
            }
        }
        for (i, row) in grid.iter().enumerate() {
            let y_here = y_max * (height - 1 - i) as f64 / (height - 1) as f64;
            let line: String = row.iter().collect();
            let _ = writeln!(out, "{y_here:>9.2} |{}", line.trim_end());
        }
        let _ = write!(out, "{:>9} +", "");
        let _ = writeln!(out, "{}", "-".repeat(width));
        let _ = write!(out, "{:>11}", "");
        for x in &self.xs {
            let _ = write!(out, "{x:^COL$}");
        }
        let _ = writeln!(out);
        let _ = write!(out, "# legend:");
        for (si, (name, _)) in self.series.iter().enumerate() {
            let _ = write!(out, " {}={name}", marker(si));
        }
        let _ = writeln!(out, "  (*=overlap)");
        out
    }

    /// The figure as a CSV table: a `threads` key column, the plotted
    /// series, then the extra columns; one row per x. The series plot
    /// throughput when the y unit is Mops/s.
    pub fn table(&self) -> Table {
        let columns = || self.series.iter().chain(&self.extras);
        let header = std::iter::once("threads").chain(columns().map(|(name, _)| name.as_str()));
        let row = |(i, x): (usize, &usize)| {
            (
                vec![x.to_string()],
                columns().map(|(_, ys)| ys[i]).collect(),
            )
        };
        let throughput = self.y_unit == "Mops/s";
        Table {
            header: header.map(String::from).collect(),
            rows: self.xs.iter().enumerate().map(row).collect(),
            plotted: if throughput { self.series.len() } else { 0 },
        }
    }
}

/// What a CSV holds: key columns, then value columns, one row per
/// line.
#[derive(Debug)]
pub struct Table {
    /// The column names, key columns first.
    pub header: Vec<String>,
    /// Each row's key fields, then its values.
    pub rows: Vec<(Vec<String>, Vec<f64>)>,
    /// How many leading value columns plot throughput (Mops/s).
    pub plotted: usize,
}

/// Latency column suffixes in the order their values must rise.
const LATENCY_ORDER: [&str; 5] = ["p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"];

impl Table {
    /// Renders the header line, then one line per row: its key fields
    /// as they are, its values with six decimals.
    pub fn render_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for (keys, values) in &self.rows {
            out.push_str(&keys.join(","));
            for v in values {
                let _ = write!(out, ",{v:.6}");
            }
            out.push('\n');
        }
        out
    }

    /// Checks for numbers no measurement produces: a value that is not
    /// finite, a plotted throughput at or below 0, or latency columns
    /// out of order (`p50 ≤ p90 ≤ p99 ≤ p999 ≤ max` among the columns
    /// of one series). The error names the row and the column.
    pub fn check(&self) -> Result<(), String> {
        let keys = self.header.len() - self.rows.first().map_or(0, |(_, v)| v.len());
        let names = &self.header[keys..];
        // Each latency column: its index, series prefix and rank.
        let ranked: Vec<(usize, &str, usize)> = names
            .iter()
            .enumerate()
            .filter_map(|(col, name)| latency_rank(name).map(|(p, rank)| (col, p, rank)))
            .collect();
        for (row, values) in &self.rows {
            let at = |col: usize| format!("row {}, column {}", row.join(","), names[col]);
            for (col, &v) in values.iter().enumerate() {
                if !v.is_finite() {
                    return Err(format!("{}: {v} is not a number", at(col)));
                }
                if col < self.plotted && v <= 0.0 {
                    return Err(format!("{}: throughput {v} is not positive", at(col)));
                }
            }
            for &(lo, p, a) in &ranked {
                for &(hi, q, b) in &ranked {
                    if p == q && a < b && values[lo] > values[hi] {
                        let (v, name, w) = (values[lo], &names[hi], values[hi]);
                        return Err(format!("{}: {v} is above {name} = {w}", at(lo)));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A latency column's series prefix (empty or ending in `_`) and the
/// rank of its suffix in [`LATENCY_ORDER`].
fn latency_rank(name: &str) -> Option<(&str, usize)> {
    LATENCY_ORDER.iter().enumerate().find_map(|(rank, suffix)| {
        let prefix = name.strip_suffix(suffix)?;
        (prefix.is_empty() || prefix.ends_with('_')).then_some((prefix, rank))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("test", vec![1, 2, 4]);
        f.add_series("SEC", vec![1.0, 2.0, 4.0]);
        f.add_series("TRB", vec![1.0, 1.5, 1.2]);
        f
    }

    #[test]
    fn table_contains_all_points_and_winner() {
        let t = sample().render_table();
        assert!(t.contains("SEC"));
        assert!(t.contains("TRB"));
        assert!(t.contains("4.000"));
        assert!(t.contains("SEC leads TRB"));
        assert!(t.contains("3.33x"));
    }

    #[test]
    fn y_unit_relabels_the_header() {
        let f = Figure::new("degrees", vec![1]).y_unit("% of ops");
        assert!(f.render_table().contains("(% of ops)"));
    }

    #[test]
    fn csv_shape() {
        let csv = sample().table().render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "threads,SEC,TRB");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("1,"));
    }

    #[test]
    fn extra_columns_reach_csv_and_table_footnote_but_not_the_plot() {
        let mut f = sample();
        f.add_extra("SEC_grows", vec![0.0, 2.0, 5.0]);
        f.add_extra("SEC_shrinks", vec![0.0, 1.0, 3.0]);
        let csv = f.table().render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "threads,SEC,TRB,SEC_grows,SEC_shrinks");
        assert!(lines[3].starts_with("4,"));
        assert!(lines[3].contains(",5.000000,3.000000"));
        let table = f.render_table();
        assert!(table.contains("counters:"));
        assert!(table.contains("SEC_grows"));
        // The plot must ignore extras (their scale is unrelated).
        let plot = f.render_ascii_plot(8);
        assert!(!plot.contains("SEC_grows"));
    }

    #[test]
    #[should_panic(expected = "extra column length")]
    fn mismatched_extra_panics() {
        let mut f = Figure::new("bad", vec![1, 2]);
        f.add_extra("x", vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "series length")]
    fn mismatched_series_panics() {
        let mut f = Figure::new("bad", vec![1, 2]);
        f.add_series("x", vec![1.0]);
    }

    #[test]
    fn ascii_plot_contains_markers_and_legend() {
        let plot = sample().render_ascii_plot(8);
        assert!(plot.contains("A=SEC"));
        assert!(plot.contains("B=TRB"));
        assert!(plot.contains('A'), "series A plotted");
        assert!(plot.contains('|'), "y axis drawn");
        assert!(plot.contains('+'), "origin drawn");
        // 8 data rows + axis + x labels + legend.
        assert!(plot.lines().count() >= 11);
    }

    #[test]
    fn ascii_plot_handles_empty_figure() {
        let f = Figure::new("empty", vec![]);
        assert!(f.render_ascii_plot(8).contains("no data"));
    }

    #[test]
    fn ascii_plot_marks_overlap() {
        let mut f = Figure::new("collide", vec![1]);
        f.add_series("a", vec![5.0]);
        f.add_series("b", vec![5.0]); // same point → '*'
        let plot = f.render_ascii_plot(6);
        assert!(
            plot.contains('*'),
            "colliding series must show overlap:\n{plot}"
        );
    }

    #[test]
    fn check_refuses_impossible_numbers() {
        let table = |header: &[&str], plotted, values: Vec<f64>| Table {
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: vec![(vec!["r1".into()], values)],
            plotted,
        };
        let lat = ["algo", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"];
        assert!(table(&lat, 0, vec![1.0, 2.0, 2.0, 3.0, 4.0])
            .check()
            .is_ok());
        let err = table(&lat, 0, vec![1.0, 5.0, 2.0, 3.0, 4.0]).check();
        assert!(err.unwrap_err().contains("row r1, column p90_ns"));
        // Only columns of one series are ordered against each other.
        let two = ["threads", "A_p50_ns", "B_p99_ns", "B_p999_ns"];
        assert!(table(&two, 0, vec![9.0, 1.0, 2.0]).check().is_ok());
        assert!(table(&two, 0, vec![1.0, 3.0, 2.0]).check().is_err());
        let mut f = sample();
        assert!(f.table().check().is_ok());
        f.series[1].1[2] = 0.0;
        assert!(f.table().check().unwrap_err().contains("row 4, column TRB"));
        let err = table(&["k", "x"], 0, vec![f64::NAN]).check();
        assert!(err.unwrap_err().contains("not a number"));
        // A zero outside the plotted columns is a count, not an error.
        assert!(table(&["k", "mops", "x"], 1, vec![1.0, 0.0])
            .check()
            .is_ok());
    }

    #[test]
    fn csv_writes_to_disk() {
        // The rendered CSV reads back to the table's numbers.
        let dir = std::env::temp_dir().join("sec_workload_table_test");
        let path = dir.join("fig_test.csv");
        let table = sample().table();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, table.render_csv()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let mut lines = content.lines();
        assert_eq!(lines.next(), Some("threads,SEC,TRB"));
        for (line, (keys, values)) in lines.zip(&table.rows) {
            let mut fields = line.split(',');
            assert_eq!(fields.next(), Some(keys[0].as_str()));
            let read: Vec<f64> = fields.map(|f| f.parse().unwrap()).collect();
            assert_eq!(&read, values);
        }
    }
}
