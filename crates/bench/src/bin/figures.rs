//! Regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p rdb-bench --release --bin figures          # all figures
//! cargo run -p rdb-bench --release --bin figures -- fig10 # one figure
//! cargo run -p rdb-bench --release --bin figures -- summary
//! ```

use rdb_bench::*;

fn run_figure(id: &str) {
    match id {
        "fig1" => print_points(
            "Figure 1: throughput vs replicas (well-crafted PBFT vs protocol-centric Zyzzyva)",
            &fig1(),
        ),
        "fig7" => print_points("Figure 7: upper bound without consensus", &fig7()),
        "fig8" => print_points(
            "Figure 8: threading/pipelining configurations vs replicas",
            &fig8(),
        ),
        "fig9" => {
            println!("\n=== Figure 9: per-thread saturation (16 replicas) ===");
            println!(
                "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
                "config", "input", "batch", "worker", "execute", "output", "cumulative"
            );
            for row in fig9() {
                let find = |label: &str, primary: bool| -> f64 {
                    row.stages
                        .iter()
                        .find(|(l, _, _)| *l == label)
                        .map(|(_, p, b)| if primary { *p } else { *b })
                        .unwrap_or(0.0)
                };
                println!(
                    "{:<14} {:>9.0}% {:>9.0}% {:>9.0}% {:>9.0}% {:>9.0}% {:>11.0}%  (primary)",
                    row.config,
                    find("input", true),
                    find("batch", true),
                    find("worker", true),
                    find("execute", true),
                    find("output", true),
                    row.primary_cumulative,
                );
                println!(
                    "{:<14} {:>9.0}% {:>9.0}% {:>9.0}% {:>9.0}% {:>9.0}% {:>11.0}%  (backup)",
                    "",
                    find("input", false),
                    find("batch", false),
                    find("worker", false),
                    find("execute", false),
                    find("output", false),
                    row.backup_cumulative,
                );
            }
        }
        "fig10" => print_points("Figure 10: transactions per batch", &fig10()),
        "fig11" => print_points(
            "Figure 11: operations per transaction × batch-threads",
            &fig11(),
        ),
        "fig12" => print_points("Figure 12: message (payload) size", &fig12()),
        "fig13" => print_points("Figure 13: cryptographic signature schemes", &fig13()),
        "fig15" => print_points("Figure 15: number of clients", &fig15()),
        "fig16" => print_points("Figure 16: hardware cores per replica", &fig16()),
        "fig17" => print_points("Figure 17: backup replica failures", &fig17()),
        "summary" => {
            let s = summary();
            println!("\n=== Section 1 headline observations (measured) ===");
            println!(
                "batching gain (B=1000 vs B=1):          {:>8.1}x   (paper: 66x)",
                s.batching_gain
            );
            println!(
                "crypto gain (CMAC+ED25519 vs RSA):      {:>8.1}x   (paper: 103x tput incl. NoSig)",
                s.crypto_gain
            );
            println!(
                "RSA latency multiplier vs CMAC:         {:>8.1}x   (paper: 125x)",
                s.rsa_latency_multiplier
            );
            println!(
                "decoupled execution gain (1E vs 0E):    {:>8.1}%   (paper: 9.5%)",
                s.decoupled_execution_gain_pct
            );
            println!(
                "Zyzzyva loss under one failure:         {:>8.1}x   (paper: 39x)",
                s.zyzzyva_failure_loss
            );
            println!(
                "PBFT advantage at n=32:                 {:>8.1}%   (paper: up to 79%)",
                s.pbft_advantage_pct
            );
            println!(
                "8-core vs 1-core gain:                  {:>8.1}x   (paper: 8.92x)",
                s.cores_gain
            );
        }
        other => {
            eprintln!("unknown figure id: {other}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "fig1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig15", "fig16",
        "fig17", "summary",
    ];
    if args.is_empty() {
        for id in all {
            run_figure(id);
        }
    } else {
        for id in &args {
            run_figure(id);
        }
    }
}
