//! `faults` — runs the deterministic failure-scenario matrix and emits
//! `BENCH_faults.json`.
//!
//! Every catalog scenario (see `resilientdb::scenario`) runs over the
//! full protocol × transport matrix — PBFT and Zyzzyva, in-memory
//! switchboard and TCP loopback reactor — against a live 4-replica
//! deployment under client load. Each run records liveness, state-digest
//! agreement, final views, retransmission dedup counts, and
//! committed-transactions-per-second buckets around the fault events
//! (the degradation profile of the paper's Figure 17).
//!
//! ```text
//! faults [--scenario <name>] [--protocol pbft|zyzzyva|both]
//!        [--transport memory|tcp|both] [--out BENCH_faults.json]
//! ```
//!
//! Exit code 1 if any run missed liveness or digest agreement, so CI can
//! gate on the binary directly.

use rdb_common::{ProtocolKind, TransportMode};
use resilientdb::scenario::{run_scenario, scenario_by_name, scenarios, Scenario, ScenarioResult};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: faults [options]

options:
  --scenario <names>   run a comma-separated subset of the catalog
                       (default: all)
  --protocol <p>       pbft | zyzzyva | both (default both)
  --transport <t>      memory | tcp | both (default both)
  --out <file>         output path (default BENCH_faults.json)
  --list               print the scenario catalog and exit"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut wanted: Option<String> = None;
    let mut protocols = vec![ProtocolKind::Pbft, ProtocolKind::Zyzzyva];
    let mut transports = vec![TransportMode::InMemory, TransportMode::Tcp];
    let mut out = String::from("BENCH_faults.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || match it.next() {
            Some(v) => v,
            None => {
                eprintln!("faults: {flag} needs a value");
                std::process::exit(2);
            }
        };
        match flag.as_str() {
            "--scenario" => wanted = Some(value()),
            "--protocol" => {
                protocols = match value().as_str() {
                    "pbft" => vec![ProtocolKind::Pbft],
                    "zyzzyva" => vec![ProtocolKind::Zyzzyva],
                    "both" => vec![ProtocolKind::Pbft, ProtocolKind::Zyzzyva],
                    other => {
                        eprintln!("faults: unknown protocol '{other}'");
                        std::process::exit(2);
                    }
                }
            }
            "--transport" => {
                transports = match value().as_str() {
                    "memory" => vec![TransportMode::InMemory],
                    "tcp" => vec![TransportMode::Tcp],
                    "both" => vec![TransportMode::InMemory, TransportMode::Tcp],
                    other => {
                        eprintln!("faults: unknown transport '{other}'");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => out = value(),
            "--list" => {
                for s in scenarios() {
                    println!(
                        "{}{}",
                        s.name,
                        if s.pbft_only { "  (pbft only)" } else { "" }
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("faults: unknown flag '{other}'");
                usage();
            }
        }
    }

    let catalog: Vec<Scenario> = match &wanted {
        Some(names) => {
            let mut subset = Vec::new();
            for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                match scenario_by_name(name) {
                    Some(s) => subset.push(s),
                    None => {
                        eprintln!("faults: unknown scenario '{name}' (try --list)");
                        return ExitCode::from(2);
                    }
                }
            }
            subset
        }
        None => scenarios(),
    };

    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut failures = 0usize;
    for scenario in &catalog {
        for &protocol in &protocols {
            if scenario.pbft_only && protocol != ProtocolKind::Pbft {
                continue;
            }
            for &transport in &transports {
                let r = run_scenario(scenario, protocol, transport);
                let ok = r.liveness && r.digests_agree && r.instances_isolated;
                println!(
                    "FAULTS scenario={} protocol={} transport={} completed={}/{} \
                     elapsed_ms={} tps={:.1} views={:?} deduped={} liveness={} agree={} {}",
                    r.scenario,
                    r.protocol,
                    r.transport,
                    r.completed,
                    r.total_txns,
                    r.elapsed_ms,
                    r.mean_tps(),
                    r.final_views,
                    r.deduped,
                    r.liveness,
                    r.digests_agree,
                    if ok { "OK" } else { "FAIL" },
                );
                if !ok {
                    failures += 1;
                    for line in &r.stuck {
                        println!("STUCK {line}");
                    }
                }
                results.push(r);
            }
        }
    }

    let runs: Vec<String> = results
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fault_matrix\",\n  \"replicas\": 4,\n  \"f\": 1,\n  \
         \"scenarios\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        catalog.len(),
        runs.join(",\n")
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("faults: cannot write {out}: {e}");
        return ExitCode::from(1);
    }
    println!("WROTE {out} runs={} failures={failures}", results.len());
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
