//! Shared configuration and rendering for the experiment binaries.
//!
//! Every binary reads the same environment knobs:
//! - `FSR_NPROC`   — process count for miss-rate experiments (default 12)
//! - `FSR_SCALE`   — problem-size multiplier (default 2)
//! - `FSR_THREADS` — worker threads (default: available parallelism)
//!
//! Run them with `cargo run -p fsr-bench --release --bin <name>`.

use std::fmt::Write as _;

/// Environment-configurable experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub nproc: i64,
    pub scale: i64,
    pub threads: usize,
}

impl Knobs {
    pub fn from_env() -> Knobs {
        let get = |k: &str, d: i64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Knobs {
            nproc: get("FSR_NPROC", 12),
            scale: get("FSR_SCALE", 2),
            threads: get("FSR_THREADS", 0) as usize,
        }
    }
}

/// The processor counts used for the scalability sweeps (KSR2-like: up
/// to 56 processors, two rings).
pub const SWEEP_PROCS: &[u32] = &[1, 2, 4, 8, 12, 16, 20, 28, 40, 48, 56];

/// Fixed-width table renderer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for c in 0..ncol {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                if c == 0 {
                    let _ = write!(out, "{:<w$}", cell, w = widths[c]);
                } else {
                    let _ = write!(out, "  {:>w$}", cell, w = widths[c]);
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }
}

/// A JSON string literal, quoted and escaped, for the bins' hand-written
/// reports.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", fsr_lang::diag::json_escape(s))
}

/// Format a speedup pair "s (p)" like the paper's Table 3.
pub fn fmt_speedup(s: Option<(f64, u32)>) -> String {
    match s {
        Some((v, p)) => format!("{v:.1} ({p})"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2345".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn knobs_have_defaults() {
        let k = Knobs::from_env();
        assert!(k.nproc >= 1);
        assert!(k.scale >= 1);
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(Some((4.25, 16))), "4.2 (16)");
        assert_eq!(fmt_speedup(None), "-");
    }
}
