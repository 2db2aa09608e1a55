//! The one writer behind every `cargo bench` target.
//!
//! Each bench's `main` opens a [`Report`], records named rows into it
//! (each printed as it lands) and calls [`Report::write`], which writes
//! its `BENCH_*.json` at the workspace root under one envelope:
//!
//! ```text
//! {
//!   "bench": "crypto_path",
//!   "git_rev": "d537399",         git rev-parse --short HEAD, "-dirty" if
//!                                 tracked files differ from it, or "unknown"
//!   "cores": 2,                   available_parallelism()
//!   "sha256_backend": "sha-ni",   what rdb_crypto selected on this CPU
//!   "aes_backend": "aes-ni",
//!   "iters": 200,                 or "window_ms" for a windowed bench
//!   "params": {"msg_bytes": 100}, the bench's own constants
//!   "unit": "...",
//!   "results": [{"name": "...", "value": 1.0}, ...]
//! }
//! ```
//!
//! The run length comes from `RDB_BENCH_ITERS` (or `RDB_BENCH_WINDOW_MS`)
//! and falls back to the bench's default. `cargo test` runs bench targets
//! with `--test`; [`Report::start`] returns `None` then, so the suite is
//! compiled and linked but not measured.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How long a bench runs: an iteration count or a wall-clock window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    /// Iterations per timed row (`RDB_BENCH_ITERS`).
    Iters(u32),
    /// Milliseconds per timed run (`RDB_BENCH_WINDOW_MS`).
    WindowMs(u64),
}

impl Length {
    /// This length with its environment override applied.
    fn with_env(self) -> Length {
        fn read<T: std::str::FromStr>(key: &str, default: T) -> T {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        match self {
            Length::Iters(n) => Length::Iters(read("RDB_BENCH_ITERS", n)),
            Length::WindowMs(ms) => Length::WindowMs(read("RDB_BENCH_WINDOW_MS", ms)),
        }
    }
}

/// A bench constant recorded under `params`.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// A count or size.
    Int(u64),
    /// A description.
    Text(String),
}

impl From<usize> for Param {
    fn from(n: usize) -> Self {
        Param::Int(n as u64)
    }
}

impl From<String> for Param {
    fn from(s: String) -> Self {
        Param::Text(s)
    }
}

/// The machine and commit a run came from.
struct Machine {
    /// Short hash of the checked-out commit, `-dirty` when the tree
    /// differs from it, or `"unknown"`.
    git_rev: String,
    /// Logical CPUs the process may use.
    cores: usize,
    /// The SHA-256 kernel every digest ran on.
    sha256_backend: &'static str,
    /// The AES kernel every replica MAC ran on.
    aes_backend: &'static str,
}

impl Machine {
    /// Reads this process's machine and the workspace's commit.
    fn detect() -> Machine {
        let git_rev = match git(&["rev-parse", "--short", "HEAD"]) {
            Some(rev) if !rev.is_empty() => {
                // Tracked edits besides the reports themselves mean the
                // numbers came from a tree no commit holds yet.
                let edits = git(&["status", "--porcelain", "-uno", "--", ".", ":!BENCH_*.json"]);
                if edits.is_some_and(|e| !e.is_empty()) {
                    format!("{rev}-dirty")
                } else {
                    rev
                }
            }
            _ => "unknown".to_string(),
        };
        Machine {
            git_rev,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sha256_backend: rdb_crypto::sha2::backend().name(),
            aes_backend: rdb_crypto::aes::backend().name(),
        }
    }
}

/// `git <args>` in the workspace root: its trimmed stdout, or `None` if
/// git is missing or fails.
fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .args(args)
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|out| out.status.success())?;
    String::from_utf8(out.stdout)
        .ok()
        .map(|s| s.trim().to_string())
}

fn workspace_root() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../..")
}

/// One bench run's rows and the envelope they are written under.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    file: &'static str,
    unit: &'static str,
    length: Length,
    params: Vec<(&'static str, Param)>,
    results: Vec<(String, f64)>,
}

impl Report {
    /// Opens the report of bench `bench`, to be written to `file` at the
    /// workspace root, with `length` as the default run length. `None`
    /// under `cargo test` (a `--test` argument): skip the suite.
    pub fn start(
        bench: &'static str,
        file: &'static str,
        unit: &'static str,
        length: Length,
    ) -> Option<Report> {
        if std::env::args().any(|a| a == "--test") {
            return None;
        }
        Some(Report::new(bench, file, unit, length.with_env()))
    }

    fn new(bench: &'static str, file: &'static str, unit: &'static str, length: Length) -> Report {
        Report {
            bench,
            file,
            unit,
            length,
            params: Vec::new(),
            results: Vec::new(),
        }
    }

    /// The iteration count of an [`Length::Iters`] bench.
    ///
    /// # Panics
    /// If the bench runs for a window.
    pub fn iters(&self) -> u32 {
        match self.length {
            Length::Iters(n) => n,
            Length::WindowMs(_) => panic!("{} runs for a window", self.bench),
        }
    }

    /// The window of a [`Length::WindowMs`] bench.
    ///
    /// # Panics
    /// If the bench runs for an iteration count.
    pub fn window(&self) -> Duration {
        match self.length {
            Length::WindowMs(ms) => Duration::from_millis(ms),
            Length::Iters(_) => panic!("{} runs for an iteration count", self.bench),
        }
    }

    /// Records a bench constant under `params`.
    pub fn param(&mut self, key: &'static str, value: impl Into<Param>) {
        self.params.push((key, value.into()));
    }

    /// Records row `name`, prints it, and hands `value` back.
    pub fn record(&mut self, name: impl Into<String>, value: f64) -> f64 {
        let name = name.into();
        println!("{name:<52} {:>14}", number(value));
        self.results.push((name, value));
        value
    }

    /// Writes the report to its file at the workspace root.
    pub fn write(&self) {
        let path = format!("{}/{}", workspace_root(), self.file);
        match std::fs::write(&path, self.render(&Machine::detect())) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {}: {e}", self.file),
        }
    }

    /// The JSON document: the envelope, then one line per row.
    fn render(&self, machine: &Machine) -> String {
        let mut out = String::from("{\n");
        let mut field = |key: &str, value: String| {
            let _ = writeln!(out, "  \"{key}\": {value},");
        };
        field("bench", quoted(self.bench));
        field("git_rev", quoted(&machine.git_rev));
        field("cores", machine.cores.to_string());
        field("sha256_backend", quoted(machine.sha256_backend));
        field("aes_backend", quoted(machine.aes_backend));
        match self.length {
            Length::Iters(n) => field("iters", n.to_string()),
            Length::WindowMs(ms) => field("window_ms", ms.to_string()),
        }
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(key, value)| {
                let value = match value {
                    Param::Int(n) => n.to_string(),
                    Param::Text(s) => quoted(s),
                };
                format!("{}: {value}", quoted(key))
            })
            .collect();
        field("params", format!("{{{}}}", params.join(", ")));
        field("unit", quoted(self.unit));
        out.push_str("  \"results\": [\n");
        for (i, (name, value)) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {}}}{comma}",
                quoted(name),
                number(*value)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Times `op` and returns mean ns per call over `iters` calls, after one
/// warm-up call so allocator and cache state are comparable.
pub fn time_ns(iters: u32, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// A row value as written: three decimals below 100 (ratios, µs, ms),
/// one above (ns, txn/s).
fn number(value: f64) -> String {
    if value.abs() < 100.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.1}")
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine {
            git_rev: "abc1234".into(),
            cores: 2,
            sha256_backend: "sha-ni",
            aes_backend: "portable",
        }
    }

    #[test]
    fn two_rows_render_under_the_envelope() {
        let mut report = Report::new(
            "demo_path",
            "BENCH_demo.json",
            "ns_per_op",
            Length::Iters(50),
        );
        report.param("msg_bytes", 100usize);
        report.param("workload", "4 ops, \"hot\" keys".to_string());
        report.record("op/fast", 12.34567);
        report.record("op/slow", 123_456.78);
        assert_eq!(
            report.render(&machine()),
            r#"{
  "bench": "demo_path",
  "git_rev": "abc1234",
  "cores": 2,
  "sha256_backend": "sha-ni",
  "aes_backend": "portable",
  "iters": 50,
  "params": {"msg_bytes": 100, "workload": "4 ops, \"hot\" keys"},
  "unit": "ns_per_op",
  "results": [
    {"name": "op/fast", "value": 12.346},
    {"name": "op/slow", "value": 123456.8}
  ]
}
"#
        );
    }

    #[test]
    fn a_windowed_bench_records_its_window() {
        let report = Report::new("w", "BENCH_w.json", "ms", Length::WindowMs(1_500));
        assert_eq!(report.window(), Duration::from_millis(1_500));
        let text = report.render(&machine());
        assert!(text.contains("\"window_ms\": 1500,"), "{text}");
        assert!(text.contains("\"results\": [\n  ]"), "{text}");
    }
}
