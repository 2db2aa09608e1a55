//! The repo's benchmark: five workloads against a live in-process
//! 4-replica cluster, four gated end-to-end metrics, and a traced pass
//! that attributes the cost to layers. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! rdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last stdout line is the result as one JSON object
//! rdb-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!     every workload, each in a fresh child process; writes results.json
//! rdb-benchmark --selfcheck [--seed <n>] [--seconds <s>]
//!     two full sets of the same build; fails if a gated metric moved by
//!     more than its bound
//! rdb-benchmark --spread <runs> [--seed <n>] [--seconds <s>]
//!     every workload <runs> times, each with another seed; prints each
//!     gated metric's quartile spread beside its bound
//! ```

mod load;
mod replay;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use run::{Options, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Defaults of the all-workloads mode (`BENCHMARK.json` fixes the
/// driver's `--seconds`; keep the two equal).
const DEFAULT_SECONDS: u64 = 18;
const DEFAULT_SEED: u64 = 1;

/// Regression bound per gated metric: the share of the parent's median
/// by which it may get worse. Same numbers as `BENCHMARK.json`.
const BOUNDS: &[(&str, f64)] = &[
    ("setup_s", 0.25),
    ("tps", 0.25),
    ("cpu_us_per_txn", 0.25),
    ("peak_rss_mb", 0.15),
];

/// Printed by every run but not gated; `--spread` reports their spread
/// too, so that the reason stays on record.
const UNGATED_LATENCIES: &[&str] = &["lat_p50_ms", "lat_p95_ms"];

/// Metrics for which a larger value is the better one.
const HIGHER_IS_BETTER: &[&str] = &["tps"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    spread: Option<usize>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
        spread: None,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                // `--trace 0|1`; a bare `--trace` means 1.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--spread" => {
                let runs: usize = value("a run count")?
                    .parse()
                    .map_err(|e| format!("--spread: {e}"))?;
                if runs < 2 {
                    return Err("--spread needs at least 2 runs".to_string());
                }
                args.spread = Some(runs);
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Finite values only: JSON has no NaN.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The one-line result the driver reads.
fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct,
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            finite(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn print_metrics(workload: &str, o: &Outcome) {
    for m in o.metrics.iter().chain(&o.ungated) {
        println!(
            "metric {workload} {} {} {} n={}",
            m.name,
            finite(m.value),
            m.unit,
            m.samples
        );
    }
    for note in &o.notes {
        println!("note {workload} {note}");
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(w) = workloads::by_name(name) else {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out: args.out.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("{}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    match run::run(&w, &opts) {
        Ok(outcome) => {
            print_metrics(w.name, &outcome);
            println!("{}", result_json(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::from(2)
        }
    }
}

/// One child's `metric` lines, by metric name.
type Row = BTreeMap<String, (f64, String, String)>;

/// Runs `workload` in a fresh child process, relays its output and
/// returns its metrics and its JSON result line.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<(Row, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut row = Row::new();
    let mut json = String::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", _, name, value, unit, samples] => {
                let value: f64 = value.parse().map_err(|e| format!("{line}: {e}"))?;
                println!(
                    "  {name:<36} {value:>16.4} {unit:<6} {}",
                    if *samples == "n=0" { "" } else { samples }
                );
                row.insert(
                    name.to_string(),
                    (value, unit.to_string(), samples.to_string()),
                );
            }
            ["note", _, ..] => {
                let text = line.splitn(3, ' ').nth(2).unwrap_or("");
                println!("  # {text}");
            }
            _ if line.starts_with('{') => json = line.to_string(),
            _ => println!("  {line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok((row, json))
}

/// Every workload once (twice with `--trace`), a table on stdout and
/// `results.json` in the output directory.
fn run_all(args: &Args) -> Result<BTreeMap<String, Row>, String> {
    let mut rows = BTreeMap::new();
    let mut results = Vec::new();
    for w in workloads::all() {
        println!("== {} — {}", w.name, w.why);
        let (row, json) = run_child(w.name, args, false)?;
        results.push(format!(
            "    {{\"workload\": \"{}\", \"trace\": 0, \"result\": {json}}}",
            w.name
        ));
        if args.trace {
            let (_, json) = run_child(w.name, args, true)?;
            results.push(format!(
                "    {{\"workload\": \"{}\", \"trace\": 1, \"result\": {json}}}",
                w.name
            ));
        }
        rows.insert(w.name.to_string(), row);
    }
    let summary = format!(
        "{{\n  \"benchmark\": \"rdb-benchmark\",\n  \"git_rev\": \"{}\",\n  \"nproc\": {},\n  \
         \"seed\": {},\n  \"window_s\": {},\n  \"warmup_s\": {:.2},\n  \
         \"injected_delay_us\": 0,\n  \"sample_counts\": \"the n= field of each metric line on \
         stdout\",\n  \"runs\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        sys::git_rev(),
        sys::cpus(),
        args.seed,
        args.seconds,
        run::WARMUP.as_secs_f64(),
        results.join(",\n")
    );
    let path = args.out.join("results.json");
    std::fs::write(&path, summary).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} (\"claim\": null — this benchmark claims no gain)",
        path.display()
    );
    Ok(rows)
}

/// Two full sets of the same build. A gated metric whose second value is
/// worse than the first by more than its bound fails the check; the
/// relative difference of every metric is printed so that the bounds can
/// be judged.
fn selfcheck(args: &Args) -> Result<bool, String> {
    println!("#### set A");
    let a = run_all(args)?;
    println!("#### set B");
    let b = run_all(args)?;
    let mut ok = true;
    println!("#### B against A (positive = worse)");
    for (workload, row_a) in &a {
        for (name, bound) in BOUNDS {
            let (va, _, _) = row_a[*name];
            let (vb, _, _) = b[workload][*name];
            let worse = if HIGHER_IS_BETTER.contains(name) {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if worse > *bound { "FAIL" } else { "ok" };
            ok &= worse <= *bound;
            println!(
                "  {workload:<16} {name:<16} A {va:>14.4}  B {vb:>14.4}  {:>+7.2}%  bound {:>4.1}%  {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// Every workload `runs` times, each time with another seed. Prints, per
/// gated metric, the median and the distance between the first and third
/// quartile as a share of it — the driver accepts the benchmark only if
/// that spread stays within the metric's bound; aim below a third of it.
fn spread(args: &Args, runs: usize) -> Result<bool, String> {
    let mut ok = true;
    let mut table = String::new();
    for w in workloads::all() {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let seeded = Args {
                workload: None,
                seed: args.seed + i as u64,
                out: args.out.clone(),
                ..*args
            };
            println!("== {} seed {}", w.name, seeded.seed);
            let (row, _) = run_child(w.name, &seeded, false)?;
            for (name, (value, _, _)) in &row {
                samples.entry(name.clone()).or_default().push(*value);
            }
        }
        let gated = BOUNDS.iter().map(|(name, bound)| (*name, Some(*bound)));
        let ungated = UNGATED_LATENCIES.iter().map(|name| (*name, None));
        for (name, bound) in gated.chain(ungated) {
            let v = &samples[name];
            let (q1, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            let verdict = match bound {
                None => "ungated".to_string(),
                // The driver does not hold set-up time to its own spread.
                Some(_) if name == "setup_s" => "ok".to_string(),
                Some(b) if spread > b => "FAIL".to_string(),
                Some(b) if spread > b / 3.0 => format!("wide (bound {:.0}%)", b * 100.0),
                Some(b) => format!("ok (bound {:.0}%)", b * 100.0),
            };
            ok &= verdict != "FAIL";
            let _ = writeln!(
                table,
                "  {:<16} {name:<16} median {:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  \
                 spread {:>6.2}%  {verdict}",
                w.name,
                stats::median(v),
                spread * 100.0,
            );
        }
    }
    println!("#### spread over {runs} seeds (q3 - q1 as a share of the median)");
    print!("{table}");
    Ok(ok)
}

fn clear_out(out: &Path) -> Result<(), String> {
    sys::fresh_dir(out).map_err(|e| format!("{}: {e}", out.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return run_one(name, &args);
    }
    let done = clear_out(&args.out).and_then(|()| {
        if args.selfcheck {
            selfcheck(&args)
        } else if let Some(runs) = args.spread {
            spread(&args, runs)
        } else {
            run_all(&args).map(|_| true)
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the tables here are what the
    /// program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = text.split_whitespace().collect();
        let section = |key: &str| {
            let start = flat.find(&format!("\"{key}\":[")).expect("section present");
            let rest = &flat[start..];
            &rest[..rest.find(']').expect("section closes")]
        };
        let e2e = section("end_to_end");
        for (name, unit) in run::END_TO_END {
            let bound = BOUNDS.iter().find(|(n, _)| n == name).expect("bounded").1;
            let better = if HIGHER_IS_BETTER.contains(name) {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":{bound}}}"
            );
            assert!(e2e.contains(&entry), "end_to_end lacks {entry}");
        }
        assert_eq!(e2e.matches("\"name\"").count(), run::END_TO_END.len());
        let layers = section("per_layer");
        for (name, unit) in run::PER_LAYER {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(layers.contains(&entry), "per_layer lacks {entry}");
        }
        assert_eq!(layers.matches("\"name\"").count(), run::PER_LAYER.len());
        let listed = section("workloads");
        for w in workloads::all() {
            assert!(listed.contains(&format!("{{\"name\":\"{}\",", w.name)));
        }
        assert_eq!(listed.matches("\"name\"").count(), workloads::all().len());
        assert!(flat.contains(&format!("\"run_seconds\":{DEFAULT_SECONDS},")));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![run::Metric {
                name: "tps",
                value: 1234.5678,
                unit: "txn/s",
                samples: 3,
            }],
            ungated: Vec::new(),
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"tps\": {\"value\": 1234.5678, \"unit\": \"txn/s\"}}}"
        );
    }
}
