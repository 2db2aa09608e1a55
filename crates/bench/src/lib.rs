//! Figure-regeneration harness.
//!
//! One function per paper figure; each runs the discrete-event simulator
//! over the figure's parameter sweep and returns rows ready to print. The
//! `figures` binary dispatches on the figure id. The measured-vs-paper
//! comparison is `figures summary`'s output, committed as
//! `docs/figures-summary.txt`; PAPER.md's "Figure sweeps" entry quotes
//! its headline multipliers.
//!
//! [`report`] is the one writer every `cargo bench` target records its
//! rows through.

pub mod report;

use rdb_common::{CryptoScheme, ProtocolKind, SystemConfig, ThreadConfig};
use rdb_sim::{SimConfig, SimMode, SimReport, SimStage};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A single measured point of a figure.
#[derive(Debug, Clone)]
pub struct Point {
    /// Series name ("PBFT", "Zyzzyva", "ED25519", ...).
    pub series: String,
    /// X-axis value rendered as text (replica count, batch size, ...).
    pub x: String,
    /// Throughput in transactions per second.
    pub throughput_tps: f64,
    /// Mean latency in milliseconds.
    pub latency_ms: f64,
}

impl Point {
    fn from_report(series: impl Into<String>, x: impl ToString, r: &SimReport) -> Self {
        Point {
            series: series.into(),
            x: x.to_string(),
            throughput_tps: r.throughput_tps,
            latency_ms: r.avg_latency_ms,
        }
    }
}

/// Builds the simulator configuration used by every figure (paper-default
/// system, shortened warmup/measure windows so the whole suite runs in
/// minutes).
pub fn sim_base(n: usize) -> SimConfig {
    let system = SystemConfig::new(n).expect("valid n");
    let mut cfg = SimConfig::new(system);
    cfg.warmup_ms = 300;
    cfg.measure_ms = 900;
    cfg
}

/// `sim_base(n)` with `mutate` applied.
fn config(n: usize, mutate: impl FnOnce(&mut SimConfig)) -> SimConfig {
    let mut cfg = sim_base(n);
    mutate(&mut cfg);
    cfg
}

/// Maps `f` over `items`, spread over the machine's cores, and returns
/// the results in order. Each simulation is independent and
/// deterministic, so its report does not depend on where it ran.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                done.lock().expect("no run panicked").push((i, result));
            });
        }
    });
    let mut done = done.into_inner().expect("no run panicked");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Runs `(series, x, configuration)` rows and turns each into a point.
fn points(rows: Vec<(String, String, SimConfig)>) -> Vec<Point> {
    par_map(&rows, |(series, x, cfg)| {
        Point::from_report(series.clone(), x, &cfg.run())
    })
}

/// Figure 1: throughput vs replicas; ResilientDB-PBFT (standard pipeline)
/// against Zyzzyva on a protocol-centric (monolithic) design; 80K clients.
pub fn fig1() -> Vec<Point> {
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 32] {
        let pbft = config(n, |c| {
            c.system.protocol = ProtocolKind::Pbft;
            c.system.threads = ThreadConfig::standard();
        });
        rows.push(("ResilientDB (PBFT)".into(), n.to_string(), pbft));
        let zyz = config(n, |c| {
            c.system.protocol = ProtocolKind::Zyzzyva;
            c.system.threads = ThreadConfig::monolithic();
        });
        rows.push(("Zyzzyva (protocol-centric)".into(), n.to_string(), zyz));
    }
    points(rows)
}

/// Figure 7: upper bound without consensus — the primary replies directly,
/// with and without execution, two independent threads.
pub fn fig7() -> Vec<Point> {
    let mut rows = Vec::new();
    for clients in [10_000usize, 20_000, 40_000, 80_000] {
        for (label, execute) in [("No Execution", false), ("Execution", true)] {
            let cfg = config(4, |c| {
                c.mode = SimMode::UpperBound { execute };
                c.system.crypto = CryptoScheme::NoCrypto;
                c.system.num_clients = clients;
            });
            rows.push((label.into(), clients.to_string(), cfg));
        }
    }
    points(rows)
}

/// The four pipeline configurations of Figure 8, in the paper's `xE yB`
/// notation.
pub fn fig8_configs() -> Vec<(&'static str, ThreadConfig)> {
    vec![
        ("0E 0B", ThreadConfig::monolithic()),
        ("1E 0B", ThreadConfig::with_e_b(1, 0)),
        ("1E 1B", ThreadConfig::with_e_b(1, 1)),
        ("1E 2B", ThreadConfig::with_e_b(1, 2)),
    ]
}

/// Figure 8: throughput/latency vs replicas for each thread configuration
/// and both protocols.
pub fn fig8() -> Vec<Point> {
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 32] {
        for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
            for (label, threads) in fig8_configs() {
                let cfg = config(n, |c| {
                    c.system.protocol = protocol;
                    c.system.threads = threads;
                });
                rows.push((format!("{} {label}", protocol.name()), n.to_string(), cfg));
            }
        }
    }
    points(rows)
}

/// One Figure 9 row: per-stage saturation at the primary and mean backup.
#[derive(Debug, Clone)]
pub struct SaturationRow {
    /// Configuration label, e.g. "PBFT 1E 2B".
    pub config: String,
    /// `(stage label, primary %, backup %)` triples.
    pub stages: Vec<(&'static str, f64, f64)>,
    /// Cumulative primary saturation.
    pub primary_cumulative: f64,
    /// Cumulative backup saturation.
    pub backup_cumulative: f64,
}

/// Figure 9: per-thread saturation levels for the eight configurations at
/// 16 replicas.
pub fn fig9() -> Vec<SaturationRow> {
    let mut rows = Vec::new();
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        for (label, threads) in fig8_configs() {
            let cfg = config(16, |c| {
                c.system.protocol = protocol;
                c.system.threads = threads;
            });
            rows.push((format!("{} {label}", protocol.name()), cfg));
        }
    }
    par_map(&rows, |(config, cfg)| {
        let r = cfg.run();
        let stages = SimStage::CPU
            .iter()
            .map(|s| {
                (
                    s.label(),
                    r.primary_saturation.get(s).copied().unwrap_or(0.0),
                    r.backup_saturation.get(s).copied().unwrap_or(0.0),
                )
            })
            .collect();
        SaturationRow {
            config: config.clone(),
            stages,
            primary_cumulative: r.primary_cumulative(),
            backup_cumulative: r.backup_cumulative(),
        }
    })
}

/// One n = 16 PBFT row per `x`, `vary` setting it.
fn pbft_sweep<X: ToString + Copy>(xs: &[X], vary: impl Fn(&mut SimConfig, X)) -> Vec<Point> {
    let rows = xs
        .iter()
        .map(|&x| ("PBFT".into(), x.to_string(), config(16, |c| vary(c, x))))
        .collect();
    points(rows)
}

/// Figure 10: throughput/latency vs batch size at 16 replicas.
pub fn fig10() -> Vec<Point> {
    let sizes = [1usize, 10, 50, 100, 500, 1_000, 3_000, 5_000];
    pbft_sweep(&sizes, |c, b| c.system.batch_size = b)
}

/// Figure 11: operations per transaction × batch-thread count.
pub fn fig11() -> Vec<Point> {
    let mut rows = Vec::new();
    for batch_threads in [2usize, 3, 4, 5] {
        for ops in [1usize, 10, 30, 50] {
            let cfg = config(16, |c| {
                c.system.ops_per_txn = ops;
                c.system.threads.batch_threads = batch_threads;
            });
            rows.push((format!("{batch_threads}B"), ops.to_string(), cfg));
        }
    }
    points(rows)
}

/// Figure 12: per-transaction payload size (message size) sweep.
pub fn fig12() -> Vec<Point> {
    let rows = [8_192usize, 16_384, 32_768, 65_536]
        .iter()
        .map(|&bytes| {
            let cfg = config(16, |c| c.system.payload_bytes = bytes);
            ("PBFT".into(), format!("{}KB", bytes / 1024), cfg)
        })
        .collect();
    points(rows)
}

/// Figure 13: signature-scheme comparison.
pub fn fig13() -> Vec<Point> {
    let rows = [
        CryptoScheme::NoCrypto,
        CryptoScheme::Ed25519,
        CryptoScheme::Rsa,
        CryptoScheme::CmacEd25519,
    ]
    .iter()
    .map(|&scheme| {
        let cfg = config(16, |c| c.system.crypto = scheme);
        (scheme.name().into(), scheme.name().into(), cfg)
    })
    .collect();
    points(rows)
}

/// Figure 15: client-population sweep.
pub fn fig15() -> Vec<Point> {
    let clients = [4_000usize, 8_000, 16_000, 32_000, 64_000, 80_000];
    pbft_sweep(&clients, |c, n| c.system.num_clients = n)
}

/// Figure 16: hardware cores per replica.
pub fn fig16() -> Vec<Point> {
    pbft_sweep(&[1usize, 2, 4, 8], |c, cores| c.system.cores = cores)
}

/// Figure 17: backup failures under both protocols (n = 16, f = 5).
pub fn fig17() -> Vec<Point> {
    let mut rows = Vec::new();
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        for failures in [0usize, 1, 5] {
            let cfg = config(16, |c| {
                c.system.protocol = protocol;
                c.failures = failures;
            });
            rows.push((protocol.name().into(), failures.to_string(), cfg));
        }
    }
    points(rows)
}

/// The §1 headline multipliers, derived from the sweeps.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Throughput gain of optimal batching over batch size 1.
    pub batching_gain: f64,
    /// Throughput gain of CMAC+ED25519 over RSA.
    pub crypto_gain: f64,
    /// Latency multiplier of RSA over CMAC+ED25519.
    pub rsa_latency_multiplier: f64,
    /// Throughput gain of decoupling execution (1E 0B over 0E 0B), percent.
    pub decoupled_execution_gain_pct: f64,
    /// Throughput loss factor of Zyzzyva under one failure.
    pub zyzzyva_failure_loss: f64,
    /// ResilientDB-PBFT over protocol-centric Zyzzyva at 32 replicas (%).
    pub pbft_advantage_pct: f64,
    /// 8-core over 1-core throughput.
    pub cores_gain: f64,
}

/// Computes the summary from fresh runs.
pub fn summary() -> Summary {
    let tput = |r: &SimReport| r.throughput_tps;
    let cfgs = vec![
        config(16, |c| c.system.batch_size = 1),
        config(16, |c| c.system.batch_size = 1_000),
        config(16, |c| c.system.crypto = CryptoScheme::Rsa),
        config(16, |c| c.system.crypto = CryptoScheme::CmacEd25519),
        config(16, |c| c.system.threads = ThreadConfig::monolithic()),
        config(16, |c| c.system.threads = ThreadConfig::with_e_b(1, 0)),
        config(16, |c| c.system.protocol = ProtocolKind::Zyzzyva),
        config(16, |c| {
            c.system.protocol = ProtocolKind::Zyzzyva;
            c.failures = 1;
        }),
        config(32, |c| c.system.threads = ThreadConfig::standard()),
        config(32, |c| {
            c.system.protocol = ProtocolKind::Zyzzyva;
            c.system.threads = ThreadConfig::monolithic();
        }),
        config(16, |c| c.system.cores = 1),
        config(16, |c| c.system.cores = 8),
    ];
    let reports = par_map(&cfgs, SimConfig::run);
    let reports: [SimReport; 12] = reports.try_into().expect("one report per configuration");
    let [b1, b_best, rsa, cmac, e0, e1, zyz_ok, zyz_fail, pbft32, zyz32, core1, core8] = &reports;

    Summary {
        batching_gain: tput(b_best) / tput(b1).max(1.0),
        crypto_gain: tput(cmac) / tput(rsa).max(1.0),
        rsa_latency_multiplier: rsa.avg_latency_ms / cmac.avg_latency_ms.max(1e-9),
        decoupled_execution_gain_pct: 100.0 * (tput(e1) / tput(e0).max(1.0) - 1.0),
        zyzzyva_failure_loss: tput(zyz_ok) / tput(zyz_fail).max(1.0),
        pbft_advantage_pct: 100.0 * (tput(pbft32) / tput(zyz32).max(1.0) - 1.0),
        cores_gain: tput(core8) / tput(core1).max(1.0),
    }
}

/// Renders points as an aligned text table.
pub fn print_points(title: &str, points: &[Point]) {
    println!("\n=== {title} ===");
    println!(
        "{:<28} {:>10} {:>14} {:>12}",
        "series", "x", "ktxn/s", "latency ms"
    );
    for p in points {
        println!(
            "{:<28} {:>10} {:>14.1} {:>12.2}",
            p.series,
            p.x,
            p.throughput_tps / 1_000.0,
            p.latency_ms
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_is_paper_default() {
        let cfg = sim_base(16);
        assert_eq!(cfg.system.batch_size, 100);
        assert_eq!(cfg.system.num_clients, 80_000);
        assert_eq!(cfg.system.cores, 8);
    }

    #[test]
    fn fig8_configs_cover_the_grid() {
        let labels: Vec<&str> = fig8_configs().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["0E 0B", "1E 0B", "1E 1B", "1E 2B"]);
    }
}
