//! # openea-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Sect. 3.3, 5 and 6) on the synthetic benchmark
//! datasets. Each experiment prints the same rows/series the paper reports
//! and (optionally) writes machine-readable JSON next to them.
//!
//! Absolute numbers differ from the paper (different data, different
//! hardware, reduced training budgets); the *shapes* — which approach wins,
//! how families differ, where CSLS/stable-marriage help — are the
//! reproduction target. See `EXPERIMENTS.md` at the repository root.

pub mod datasets;
pub mod figures;
pub mod runner;
pub mod tables;

use openea_runtime::json::ToJson;
use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// `print!` into a [`HarnessConfig`]'s [`Output`].
#[macro_export]
macro_rules! show {
    ($cfg:expr, $($arg:tt)*) => {
        $cfg.out.write(format_args!($($arg)*))
    };
}

/// `println!` into a [`HarnessConfig`]'s [`Output`].
#[macro_export]
macro_rules! showln {
    ($cfg:expr) => {
        $cfg.out.write(format_args!("\n"))
    };
    ($cfg:expr, $($arg:tt)*) => {
        $cfg.out.write(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Where the experiments print their tables and figures: stdout, or any
/// writer a caller hands in (a unit test hands in its own, since a direct
/// stdout write bypasses the test harness's output capture). A reader that
/// closes the pipe early (`| head`) ends the process quietly with status 0,
/// as [`openea_runtime::cli::write_or_exit`] does for every binary.
#[derive(Clone)]
pub struct Output(Arc<Mutex<dyn Write + Send>>);

impl Output {
    pub fn stdout() -> Self {
        Self::to(io::stdout())
    }

    pub fn to(writer: impl Write + Send + 'static) -> Self {
        Self(Arc::new(Mutex::new(writer)))
    }

    /// Writes `text` (the [`show!`] / [`showln!`] macros call this).
    pub fn write(&self, text: fmt::Arguments<'_>) {
        let mut out = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        openea_runtime::cli::write_or_exit(&mut *out, text);
    }
}

impl fmt::Debug for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Output")
    }
}

/// How big the experiments run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~600-entity datasets, 2 folds, short training. Minutes.
    Small,
    /// ~1500-entity datasets, 3 folds. Tens of minutes.
    Medium,
    /// Paper-like 15K datasets, 5 folds. Hours.
    Large,
}

impl std::str::FromStr for Scale {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            _ => Err("expected small, medium or large"),
        }
    }
}

impl Scale {
    /// Entities per KG of the "15K-analog" datasets.
    pub fn base_entities(self) -> usize {
        match self {
            Scale::Small => 600,
            Scale::Medium => 1500,
            Scale::Large => 15_000,
        }
    }

    /// Entities per KG of the "100K-analog" datasets (the 15K/100K contrast
    /// of Table 5 becomes a base/large contrast).
    pub fn large_entities(self) -> usize {
        match self {
            Scale::Small => 1800,
            Scale::Medium => 5000,
            Scale::Large => 100_000,
        }
    }

    pub fn folds(self) -> usize {
        match self {
            Scale::Small => 2,
            Scale::Medium => 3,
            Scale::Large => 5,
        }
    }

    pub fn max_epochs(self) -> usize {
        match self {
            Scale::Small => 70,
            Scale::Medium => 100,
            Scale::Large => 200,
        }
    }
}

/// Global harness options.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    pub scale: Scale,
    pub seed: u64,
    /// Where JSON results are written (created on demand); `None` = stdout
    /// only.
    pub out_dir: Option<PathBuf>,
    pub threads: usize,
    /// Per-fold wall-clock budget in seconds. When a fold exceeds it the
    /// driver engine stops gracefully after the current epoch and the run's
    /// trace records `StopReason::DeadlineExceeded` (visible in
    /// `results/*.json`). `None` = unbounded.
    pub deadline_s: Option<f64>,
    /// Where the printed tables and figures go.
    pub out: Output,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 7,
            out_dir: Some(PathBuf::from("results")),
            threads: openea_runtime::pool::num_threads(),
            deadline_s: None,
            out: Output::stdout(),
        }
    }
}

impl HarnessConfig {
    /// Writes a JSON result document for `experiment`.
    pub fn write_json<T: ToJson + ?Sized>(&self, experiment: &str, value: &T) {
        let Some(dir) = &self.out_dir else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warn: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{experiment}.json"));
        let s = openea_runtime::json::to_string_pretty(value);
        if let Err(e) = std::fs::write(&path, s) {
            eprintln!("warn: cannot write {}: {e}", path.display());
        } else {
            showln!(self, "[saved {}]", path.display());
        }
    }

    /// Writes a CSV result document (the paper distributes its per-fold
    /// results as CSV files).
    pub fn write_csv(&self, experiment: &str, header: &[&str], rows: &[Vec<String>]) {
        let Some(dir) = &self.out_dir else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(format!("{experiment}.csv"));
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        if std::fs::write(&path, out).is_ok() {
            showln!(self, "[saved {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!("small".parse(), Ok(Scale::Small));
        assert_eq!("medium".parse(), Ok(Scale::Medium));
        assert_eq!("large".parse(), Ok(Scale::Large));
        assert!("huge".parse::<Scale>().is_err());
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Small.base_entities() < Scale::Medium.base_entities());
        assert!(Scale::Medium.base_entities() < Scale::Large.base_entities());
        assert!(Scale::Small.base_entities() < Scale::Small.large_entities());
    }
}
