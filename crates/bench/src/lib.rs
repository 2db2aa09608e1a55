//! Figure-regeneration harness.
//!
//! One function per paper figure; each runs the discrete-event simulator
//! over the figure's parameter sweep and returns rows ready to print. The
//! `figures` binary dispatches on the figure id; `EXPERIMENTS.md` records
//! the measured-vs-paper comparison.
//!
//! [`report`] is the one writer every `cargo bench` target records its
//! rows through.

pub mod report;

use rdb_common::{CryptoScheme, ProtocolKind, SystemConfig, ThreadConfig};
use rdb_sim::service::SQLITE_STAND_IN_OP_NS;
use rdb_sim::{SimConfig, SimMode, SimReport, SimStage};

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

fn run(mut cfg: SimConfig, mutate: impl FnOnce(&mut SimConfig)) -> SimReport {
    mutate(&mut cfg);
    cfg.run()
}

/// Figure 1: throughput vs replicas; ResilientDB-PBFT (standard pipeline)
/// against Zyzzyva on a protocol-centric (monolithic) design; 80K clients.
pub fn fig1() -> Vec<Point> {
    let mut out = Vec::new();
    for n in [4usize, 8, 16, 32] {
        let pbft = run(sim_base(n), |c| {
            c.system.protocol = ProtocolKind::Pbft;
            c.system.threads = ThreadConfig::standard();
        });
        out.push(Point::from_report("ResilientDB (PBFT)", n, &pbft));
        let zyz = run(sim_base(n), |c| {
            c.system.protocol = ProtocolKind::Zyzzyva;
            c.system.threads = ThreadConfig::monolithic();
        });
        out.push(Point::from_report("Zyzzyva (protocol-centric)", n, &zyz));
    }
    out
}

/// Figure 7: upper bound without consensus — the primary replies directly,
/// with and without execution, two independent threads.
pub fn fig7() -> Vec<Point> {
    let mut out = Vec::new();
    for clients in [10_000usize, 20_000, 40_000, 80_000] {
        for (label, execute) in [("No Execution", false), ("Execution", true)] {
            let r = run(sim_base(4), |c| {
                c.mode = SimMode::UpperBound { execute };
                c.system.crypto = CryptoScheme::NoCrypto;
                c.system.num_clients = clients;
            });
            out.push(Point::from_report(label, clients, &r));
        }
    }
    out
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
    let mut out = Vec::new();
    for n in [4usize, 8, 16, 32] {
        for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
            for (label, threads) in fig8_configs() {
                let r = run(sim_base(n), |c| {
                    c.system.protocol = protocol;
                    c.system.threads = threads;
                });
                out.push(Point::from_report(
                    format!("{} {label}", protocol.name()),
                    n,
                    &r,
                ));
            }
        }
    }
    out
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
    let mut out = Vec::new();
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        for (label, threads) in fig8_configs() {
            let r = run(sim_base(16), |c| {
                c.system.protocol = protocol;
                c.system.threads = threads;
            });
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
            out.push(SaturationRow {
                config: format!("{} {label}", protocol.name()),
                stages,
                primary_cumulative: r.primary_cumulative(),
                backup_cumulative: r.backup_cumulative(),
            });
        }
    }
    out
}

/// Figure 10: throughput/latency vs batch size at 16 replicas.
pub fn fig10() -> Vec<Point> {
    [1usize, 10, 50, 100, 500, 1_000, 3_000, 5_000]
        .iter()
        .map(|&b| {
            let r = run(sim_base(16), |c| c.system.batch_size = b);
            Point::from_report("PBFT", b, &r)
        })
        .collect()
}

/// Figure 11: operations per transaction × batch-thread count.
pub fn fig11() -> Vec<Point> {
    let mut out = Vec::new();
    for batch_threads in [2usize, 3, 4, 5] {
        for ops in [1usize, 10, 30, 50] {
            let r = run(sim_base(16), |c| {
                c.system.ops_per_txn = ops;
                c.system.threads.batch_threads = batch_threads;
            });
            out.push(Point::from_report(format!("{batch_threads}B"), ops, &r));
        }
    }
    out
}

/// Figure 12: per-transaction payload size (message size) sweep.
pub fn fig12() -> Vec<Point> {
    [8_192usize, 16_384, 32_768, 65_536]
        .iter()
        .map(|&bytes| {
            let r = run(sim_base(16), |c| c.system.payload_bytes = bytes);
            Point::from_report("PBFT", format!("{}KB", bytes / 1024), &r)
        })
        .collect()
}

/// Figure 13: signature-scheme comparison.
pub fn fig13() -> Vec<Point> {
    [
        CryptoScheme::NoCrypto,
        CryptoScheme::Ed25519,
        CryptoScheme::Rsa,
        CryptoScheme::CmacEd25519,
    ]
    .iter()
    .map(|&scheme| {
        let r = run(sim_base(16), |c| c.system.crypto = scheme);
        Point::from_report(scheme.name(), scheme.name(), &r)
    })
    .collect()
}

/// Figure 14: in-memory vs paged (SQLite-like) state storage. Model output
/// only: every replica runs the in-memory store, and the paged row prices
/// each store operation at [`SQLITE_STAND_IN_OP_NS`].
pub fn fig14() -> Vec<Point> {
    let mem = run(sim_base(16), |_| {});
    let paged = run(sim_base(16), |c| {
        c.overheads.store_op_ns = SQLITE_STAND_IN_OP_NS
    });
    vec![
        Point::from_report("in-memory", "in-memory", &mem),
        Point::from_report("paged", "paged", &paged),
    ]
}

/// Figure 15: client-population sweep.
pub fn fig15() -> Vec<Point> {
    [4_000usize, 8_000, 16_000, 32_000, 64_000, 80_000]
        .iter()
        .map(|&clients| {
            let r = run(sim_base(16), |c| c.system.num_clients = clients);
            Point::from_report("PBFT", clients, &r)
        })
        .collect()
}

/// Figure 16: hardware cores per replica.
pub fn fig16() -> Vec<Point> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&cores| {
            let r = run(sim_base(16), |c| c.system.cores = cores);
            Point::from_report("PBFT", cores, &r)
        })
        .collect()
}

/// Figure 17: backup failures under both protocols (n = 16, f = 5).
pub fn fig17() -> Vec<Point> {
    let mut out = Vec::new();
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        for failures in [0usize, 1, 5] {
            let r = run(sim_base(16), |c| {
                c.system.protocol = protocol;
                c.failures = failures;
            });
            out.push(Point::from_report(protocol.name(), failures, &r));
        }
    }
    out
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
    /// Throughput gain of in-memory over paged storage.
    pub memory_gain: f64,
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

    let b1 = run(sim_base(16), |c| c.system.batch_size = 1);
    let b_best = run(sim_base(16), |c| c.system.batch_size = 1_000);

    let rsa = run(sim_base(16), |c| c.system.crypto = CryptoScheme::Rsa);
    let cmac = run(sim_base(16), |c| {
        c.system.crypto = CryptoScheme::CmacEd25519
    });

    let storage = fig14();

    let e0 = run(sim_base(16), |c| {
        c.system.threads = ThreadConfig::monolithic()
    });
    let e1 = run(sim_base(16), |c| {
        c.system.threads = ThreadConfig::with_e_b(1, 0)
    });

    let zyz_ok = run(sim_base(16), |c| c.system.protocol = ProtocolKind::Zyzzyva);
    let zyz_fail = run(sim_base(16), |c| {
        c.system.protocol = ProtocolKind::Zyzzyva;
        c.failures = 1;
    });

    let pbft32 = run(sim_base(32), |c| {
        c.system.threads = ThreadConfig::standard()
    });
    let zyz32 = run(sim_base(32), |c| {
        c.system.protocol = ProtocolKind::Zyzzyva;
        c.system.threads = ThreadConfig::monolithic();
    });

    let core1 = run(sim_base(16), |c| c.system.cores = 1);
    let core8 = run(sim_base(16), |c| c.system.cores = 8);

    Summary {
        batching_gain: tput(&b_best) / tput(&b1).max(1.0),
        crypto_gain: tput(&cmac) / tput(&rsa).max(1.0),
        rsa_latency_multiplier: rsa.avg_latency_ms / cmac.avg_latency_ms.max(1e-9),
        memory_gain: storage[0].throughput_tps / storage[1].throughput_tps.max(1.0),
        decoupled_execution_gain_pct: 100.0 * (tput(&e1) / tput(&e0).max(1.0) - 1.0),
        zyzzyva_failure_loss: tput(&zyz_ok) / tput(&zyz_fail).max(1.0),
        pbft_advantage_pct: 100.0 * (tput(&pbft32) / tput(&zyz32).max(1.0) - 1.0),
        cores_gain: tput(&core8) / tput(&core1).max(1.0),
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
