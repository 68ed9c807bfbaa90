//! # bp-bench — binaries regenerating the paper's figures
//!
//! One binary per evaluation figure (`fig03` … `fig13`, see DESIGN.md §4)
//! plus the mapping, placement and machine-sweep ablations. This library
//! crate holds their shared plumbing: compiling an application, running the
//! timed simulation, and rendering the small ASCII tables and bars the
//! binaries print. Performance claims are judged by the `benchmark/`
//! package (`BENCHMARK.json`), not by these binaries.

#![warn(missing_docs)]

use bp_apps::App;
use bp_compiler::{compile, CompileOptions, Compiled};
use bp_core::Result;
use bp_sim::{SimConfig, SimReport, TimedSimulator};

/// Compile an application and run the timed simulator for `frames` frames.
pub fn compile_and_simulate(
    app: &App,
    opts: &CompileOptions,
    frames: u32,
) -> Result<(Compiled, SimReport)> {
    let compiled = compile(&app.graph, opts)?;
    let config = SimConfig::new(frames).with_machine(opts.machine);
    let report = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)?.run()?;
    Ok((compiled, report))
}

/// Render a percentage as a fixed-width ASCII bar, one `#` per 2%.
pub fn bar(fraction: f64) -> String {
    let n = (fraction * 50.0).round().clamp(0.0, 50.0) as usize;
    format!("{:<50}", "#".repeat(n))
}

/// Format a (run, read, write) utilization breakdown like the stacked bars
/// of Fig. 13.
pub fn breakdown_row(label: &str, report: &SimReport) -> String {
    let (run, read, write) = report.utilization_breakdown();
    let total = run + read + write;
    format!(
        "{label:>6} | {:>5.1}% = run {:>5.1}% + read {:>5.1}% + write {:>5.1}% on {:>3} PEs |{}|",
        100.0 * total,
        100.0 * run,
        100.0 * read,
        100.0 * write,
        report.num_pes(),
        bar(total)
    )
}

/// A minimal fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut s = line(&self.headers);
        s.push('\n');
        s.push_str(&"-".repeat(s.len().saturating_sub(1)));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&line(row));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(0.0).trim(), "");
        assert_eq!(bar(1.0).trim().len(), 50);
        assert_eq!(bar(2.0).trim().len(), 50);
        assert_eq!(bar(0.5).trim().len(), 25);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["yyyy".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn compile_and_simulate_small_case() {
        let app = bp_apps::fig1b(bp_apps::SMALL, bp_apps::SLOW);
        let (c, r) = compile_and_simulate(&app, &CompileOptions::default(), 1).unwrap();
        assert!(r.verdict.met);
        assert!(c.report.pes_used > 0);
        let row = breakdown_row("SS", &r);
        assert!(row.contains("run"));
    }
}
