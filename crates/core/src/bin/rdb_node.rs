//! `rdb-node` — one node of a multi-process ResilientDB cluster.
//!
//! A replica process runs the full pipeline over the TCP transport and
//! reports progress on stdout; a client process submits a closed-loop
//! write workload and exits when it completes; a swarm process multiplexes
//! thousands of client sessions — each with its own dedicated socket to
//! the primary — onto a few shard threads. A client process is a swarm of
//! one session over shared links: both run the same load driver
//! (`resilientdb::swarm`). All processes must agree on the peer map, seed
//! and crypto scheme so they derive identical keys.
//!
//! Configuration is the unified `NodeOptions`: the `--peers` file may
//! carry a `[node]` section alongside `[peers]`, and every `[node]` key is
//! also a flag (`batch_size` ⇔ `--batch-size`) that overrides it — both
//! spellings go through `NodeOptions::set`.
//!
//! ```text
//! # replica 0 of a 4-replica cluster
//! rdb-node --replica 0 --peers cluster.toml --exit-after-txns 2000
//!
//! # a closed-loop client
//! rdb-node --client --peers cluster.toml --txns 200
//!
//! # a 1000-client swarm, 2 txns each
//! rdb-node --swarm 1000 --peers cluster.toml --txns-per-client 2
//!
//! # the same swarm against an in-process in-memory fabric (reference
//! # run for digest comparison)
//! rdb-node --swarm 1000 --mem --peers cluster.toml --txns-per-client 2
//! ```
//!
//! Replica output protocol (consumed by the smoke harnesses):
//!
//! ```text
//! RECOVER replica=0 source=local snapshot_seq=40 replayed_batches=3 replayed_txns=60
//!                                           (only with --data-dir, before READY)
//! READY replica=0 listen=127.0.0.1:7000
//! STATE replica=0 executed=120 digest=ab…   (periodic)
//! FINAL replica=0 executed=200 digest=ab…   (once --exit-after-txns is reached)
//! ```
//!
//! Swarm output (one line, plus FINAL lines per replica in `--mem` mode):
//!
//! ```text
//! SWARM clients=1000 submitted=2000 committed=2000 elapsed_ms=813 \
//!       tps=2460.0 p50_us=41000 p95_us=95000 p99_us=120000
//! ```

use rdb_common::{NodeOptions, PeerMap, ReplicaId, TransportMode};
use resilientdb::scenario::FaultPlan;
use resilientdb::{
    client_net, registry_for, run_swarm, start_replica, SwarmConfig, SwarmReport, SystemBuilder,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    role: Role,
    peers: PeerMap,
    /// Raw text of the `--peers` file (if it was a file): carries the
    /// optional `[node]` section.
    config_text: Option<String>,
    /// `[node]`-equivalent flags in command-line order, as `(flag, value)`.
    node_flags: Vec<(String, String)>,
    // replica knobs
    exit_after_txns: Option<u64>,
    report_every_ms: u64,
    run_secs: u64,
    linger_ms: u64,
    fault_plan: Option<String>,
    // client knobs
    client_id: u64,
    txns: u64,
    burst: Option<usize>,
    wait_secs: u64,
    // swarm knobs
    txns_per_client: u64,
    shards: usize,
    first_client: u64,
    mem: bool,
}

enum Role {
    Replica(ReplicaId),
    Client,
    Swarm(usize),
}

fn usage() -> ! {
    eprintln!(
        "usage: rdb-node (--replica <id> | --client | --swarm <n>) --peers <spec|file> [options]

options:
  --peers <spec|file>     0=host:port,1=host:port,… or a TOML file with
                          [peers] and an optional [node] section
  --protocol <p>          pbft (default) | zyzzyva
  --crypto <c>            cmac-ed25519 (default; also cmac) | ed25519 | rsa | nocrypto
  --batch-size <n>        transactions per consensus batch (default 20)
  --client-keys <n>       client identities to derive keys for (default 8)
  --seed <n>              deterministic key seed, identical cluster-wide (default 42)
  --table-size <n>        pre-loaded table records (default 4096)
  --consensus-instances <k>
                          parallel PBFT instances sharing the replica set
                          (multi-primary ordering; default 1, pbft only)

replica options:
  --exit-after-txns <n>   print FINAL and exit once n txns executed
  --report-every-ms <n>   STATE line period (default 1000)
  --run-secs <n>          hard lifetime limit (default 600)
  --linger-ms <n>         drain time after FINAL before shutdown (default 2000)
  --fault-plan <file>     deterministic fault schedule applied to this
                          node's transport; every process of the cluster
                          should load the same file. Directives:
                            seed <n>
                            at committed <n> crash <r> | recover <r>
                            at elapsed_ms <n> partition 0,1|2,3 | heal
                            at elapsed_ms <n> drop_rate <f> | delay_jitter_us <n>
                          (committed marks fire on this node's local
                          executed-transaction count)
  --data-dir <dir>        root directory for durable state; the replica
                          writes <dir>/replica-<id>/ (WAL + snapshots) and
                          recovers from it on restart, printing a RECOVER
                          line. Without it the replica is memory-only.
  --fsync <policy>        always | group (default) | never — when WAL
                          appends reach the disk platter
  --group-commit-window-us <n>
                          fsync coalescing window for --fsync group
                          (default 1000)

client options:
  --client-id <n>         which client identity to use (default 0)
  --txns <n>              total transactions to submit (default 100)
  --burst <n>             transactions per request (default: batch size)
  --wait-secs <n>         deadline for the whole run (default 60)

swarm options:
  --txns-per-client <n>   transactions each swarm client submits (default 2)
  --shards <n>            threads multiplexing the sessions (default 8)
  --first-client <n>      first client id of this process's range (default 0)
  --mem                   run against an in-process in-memory fabric instead
                          of the TCP cluster (reference run; prints FINAL
                          digest lines for every replica)
  --wait-secs <n>         overall swarm deadline (default 60)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        role: Role::Client,
        peers: PeerMap::new(),
        config_text: None,
        node_flags: Vec::new(),
        exit_after_txns: None,
        report_every_ms: 1_000,
        run_secs: 600,
        linger_ms: 2_000,
        fault_plan: None,
        client_id: 0,
        txns: 100,
        burst: None,
        wait_secs: 60,
        txns_per_client: 2,
        shards: 8,
        first_client: 0,
        mem: false,
    };
    let mut role = None;
    let mut it = std::env::args().skip(1);
    let missing = |flag: &str| -> ! {
        eprintln!("rdb-node: {flag} needs a value");
        std::process::exit(2);
    };
    let bad = |flag: &str, v: &str| -> ! {
        eprintln!("rdb-node: invalid value '{v}' for {flag}");
        std::process::exit(2);
    };
    while let Some(flag) = it.next() {
        macro_rules! value {
            () => {
                match it.next() {
                    Some(v) => v,
                    None => missing(&flag),
                }
            };
        }
        macro_rules! parsed {
            () => {{
                let v = value!();
                match v.parse() {
                    Ok(x) => x,
                    Err(_) => bad(&flag, &v),
                }
            }};
        }
        match flag.as_str() {
            "--replica" => role = Some(Role::Replica(ReplicaId(parsed!()))),
            "--client" => role = Some(Role::Client),
            "--swarm" => role = Some(Role::Swarm(parsed!())),
            "--peers" => {
                let v = value!();
                let parsed = if v.contains('=') {
                    PeerMap::parse_flag(&v)
                } else {
                    match std::fs::read_to_string(&v) {
                        Ok(text) => {
                            let p = PeerMap::parse_toml(&text);
                            args.config_text = Some(text);
                            p
                        }
                        Err(e) => {
                            eprintln!("rdb-node: cannot read {v}: {e}");
                            std::process::exit(2);
                        }
                    }
                };
                match parsed {
                    Ok(p) => args.peers = p,
                    Err(e) => {
                        eprintln!("rdb-node: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--protocol"
            | "--crypto"
            | "--batch-size"
            | "--client-keys"
            | "--seed"
            | "--table-size"
            | "--consensus-instances"
            | "--data-dir"
            | "--fsync"
            | "--group-commit-window-us" => {
                let v = value!();
                args.node_flags.push((flag, v));
            }
            "--exit-after-txns" => args.exit_after_txns = Some(parsed!()),
            "--report-every-ms" => args.report_every_ms = parsed!(),
            "--run-secs" => args.run_secs = parsed!(),
            "--linger-ms" => args.linger_ms = parsed!(),
            "--fault-plan" => args.fault_plan = Some(value!()),
            "--client-id" => args.client_id = parsed!(),
            "--txns" => args.txns = parsed!(),
            "--burst" => args.burst = Some(parsed!()),
            "--wait-secs" => args.wait_secs = parsed!(),
            "--txns-per-client" => args.txns_per_client = parsed!(),
            "--shards" => args.shards = parsed!(),
            "--first-client" => args.first_client = parsed!(),
            "--mem" => args.mem = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("rdb-node: unknown flag '{other}'");
                usage();
            }
        }
    }
    match role {
        Some(r) => args.role = r,
        None => usage(),
    }
    args
}

/// Layers the unified options: constructor defaults, then the config
/// file's `[node]` section, then explicit flag overrides — one validate
/// at the end.
fn node_options(args: &Args) -> NodeOptions {
    let fail = |e: rdb_common::CommonError| -> ! {
        eprintln!("rdb-node: {e}");
        std::process::exit(2);
    };
    let mut node = match NodeOptions::new(args.peers.clone()) {
        Ok(n) => n,
        Err(e) => fail(e),
    };
    // The binary's historical default batch size (smoke-test scale).
    node.system.batch_size = 20;
    if let Some(text) = &args.config_text {
        if let Err(e) = node.apply_toml(text) {
            fail(e);
        }
    }
    for (flag, value) in &args.node_flags {
        // `--batch-size` is the `[node]` key `batch_size`.
        let key = flag.trim_start_matches('-').replace('-', "_");
        if let Err(e) = node.set(&key, value) {
            fail(e);
        }
    }
    if let Err(e) = node.validate() {
        fail(e);
    }
    node
}

/// Fires a fault plan against this node's transport: a 10 ms ticker
/// applies each event once its mark passes (committed marks use the local
/// executed-transaction count) and logs a `FAULT` line per firing.
fn spawn_fault_schedule(mut plan: FaultPlan, node: &resilientdb::ReplicaNode, id: ReplicaId) {
    let net = node.network().clone();
    let shared = std::sync::Arc::clone(node.shared());
    net.faults().set_seed(plan.seed);
    std::thread::spawn(move || {
        let started = Instant::now();
        while !plan.events.is_empty() {
            let executed = shared.executor.executed_txns();
            for event in plan.take_due(executed, started.elapsed()) {
                event.action.apply_to_controller(net.faults());
                println!(
                    "FAULT replica={} ms={} action={}",
                    id.0,
                    started.elapsed().as_millis(),
                    event.action.describe()
                );
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
}

fn run_replica(args: &Args, id: ReplicaId) -> ExitCode {
    let node_cfg = node_options(args);
    let plan = match &args.fault_plan {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("rdb-node: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match FaultPlan::parse(&text) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("rdb-node: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    let node = match start_replica(&node_cfg, id) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("rdb-node: cannot start replica {id}: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(plan) = plan {
        spawn_fault_schedule(plan, &node, id);
    }
    if let Some(report) = node.shared().recovery_report() {
        println!(
            "RECOVER replica={} source={} snapshot_seq={} replayed_batches={} replayed_txns={}",
            id.0,
            report.source.name(),
            report.snapshot_seq.0,
            report.replayed_batches,
            report.replayed_txns,
        );
    }
    println!(
        "READY replica={} listen={}",
        id.0,
        node_cfg.peers.get(id).expect("own peer entry")
    );
    let started = Instant::now();
    let report_every = Duration::from_millis(args.report_every_ms.max(10));
    let deadline = started + Duration::from_secs(args.run_secs);
    loop {
        std::thread::sleep(report_every);
        let executed = node.shared().executor.executed_txns();
        let digest = node.shared().store.state_digest();
        println!("STATE replica={} executed={executed} digest={digest}", id.0);
        if let Some(target) = args.exit_after_txns {
            if executed >= target {
                // Snapshot-stable read: the executed counter only advances
                // after the store writes land, but execution may still be
                // in flight past the target (the client is free to submit
                // more than --exit-after-txns). Pair the digest with a
                // count that is identical before and after reading it, so
                // FINAL lines are bit-comparable across replicas at equal
                // counts.
                let mut attempts = 0;
                let (executed, digest) = loop {
                    let before = node.shared().executor.executed_txns();
                    let digest = node.shared().store.state_digest();
                    attempts += 1;
                    if node.shared().executor.executed_txns() == before || attempts > 250 {
                        break (before, digest);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                };
                println!("FINAL replica={} executed={executed} digest={digest}", id.0);
                // Let queued consensus traffic drain so slower replicas
                // can still reach their own target.
                std::thread::sleep(Duration::from_millis(args.linger_ms));
                node.shutdown();
                return ExitCode::SUCCESS;
            }
        }
        if Instant::now() > deadline {
            eprintln!("rdb-node: replica {} hit --run-secs limit", id.0);
            node.shutdown();
            return ExitCode::from(3);
        }
    }
}

fn run_client(args: &Args) -> ExitCode {
    let node_cfg = node_options(args);
    let net = match client_net(&node_cfg, None) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("rdb-node: cannot connect client: {e}");
            return ExitCode::from(1);
        }
    };
    let cfg = SwarmConfig {
        clients: 1,
        txns_per_client: args.txns,
        burst: args.burst.unwrap_or(node_cfg.system.batch_size),
        shards: 1,
        first_client: args.client_id,
        deadline: Duration::from_secs(args.wait_secs),
    };
    let report = run_swarm(
        &net,
        &registry_for(&node_cfg),
        &node_cfg.system,
        &cfg,
        |_, _| {},
    );
    println!(
        "CLIENT done={} submitted={}",
        report.committed, report.submitted
    );
    net.shutdown();
    if report.committed == args.txns {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rdb-node: client completed {}/{} transactions",
            report.committed, args.txns
        );
        for line in &report.stuck {
            eprintln!("rdb-node: stuck {line}");
        }
        ExitCode::from(1)
    }
}

fn print_swarm(report: &SwarmReport) {
    println!(
        "SWARM clients={} submitted={} committed={} elapsed_ms={} tps={:.1} p50_us={} p95_us={} p99_us={}",
        report.clients,
        report.submitted,
        report.committed,
        report.elapsed.as_millis(),
        report.tps(),
        report.p50_us,
        report.p95_us,
        report.p99_us,
    );
}

fn run_swarm_mode(args: &Args, clients: usize) -> ExitCode {
    let node_cfg = node_options(args);
    let cfg = SwarmConfig {
        clients,
        txns_per_client: args.txns_per_client,
        burst: args.burst.unwrap_or(args.txns_per_client.max(1) as usize),
        shards: args.shards,
        first_client: args.first_client,
        deadline: Duration::from_secs(args.wait_secs),
    };
    let total = clients as u64 * args.txns_per_client;
    // The swarm needs a key per client id. That is a cluster-wide
    // agreement, so it must be raised explicitly — in the [node] section
    // or flags — rather than silently bumped on this process alone.
    let top_id = args.first_client + clients as u64;
    if (node_cfg.client_keys as u64) < top_id {
        eprintln!(
            "rdb-node: swarm needs client_keys >= {top_id} (have {}); set client_keys \
             in the [node] section or --client-keys on every process",
            node_cfg.client_keys
        );
        return ExitCode::from(2);
    }

    if args.mem {
        // Reference run: the same swarm shape against an in-process
        // in-memory fabric, printing FINAL digest lines so a TCP run can
        // be digest-compared against it.
        let mut mem_cfg = node_cfg;
        mem_cfg.transport = TransportMode::InMemory;
        let db = match SystemBuilder::from_options(mem_cfg).build() {
            Ok(db) => db,
            Err(e) => {
                eprintln!("rdb-node: cannot build in-memory fabric: {e}");
                return ExitCode::from(1);
            }
        };
        let report = db.run_swarm(&cfg, |_, _| {});
        print_swarm(&report);
        // Let every replica finish executing before reading digests.
        let deadline = Instant::now() + Duration::from_secs(args.wait_secs);
        let n = db.replica_count();
        loop {
            let counts: Vec<u64> = (0..n as u32)
                .map(|i| db.executed_txns(ReplicaId(i)))
                .collect();
            if counts.iter().all(|&c| c >= total) || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        for (i, digest) in db.state_digests().iter().enumerate() {
            let executed = db.executed_txns(ReplicaId(i as u32));
            println!("FINAL replica={i} executed={executed} digest={digest}");
        }
        db.shutdown();
        return if report.committed == total {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "rdb-node: swarm committed {}/{total} transactions",
                report.committed
            );
            ExitCode::from(1)
        };
    }

    let net = match client_net(&node_cfg, Some(ReplicaId(0))) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("rdb-node: cannot start swarm transport: {e}");
            return ExitCode::from(1);
        }
    };
    let registry = registry_for(&node_cfg);
    let report = run_swarm(&net, &registry, &node_cfg.system, &cfg, |_, _| {});
    print_swarm(&report);
    net.shutdown();
    if report.committed == total {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rdb-node: swarm committed {}/{total} transactions",
            report.committed
        );
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.role {
        Role::Replica(id) => run_replica(&args, id),
        Role::Client => run_client(&args),
        Role::Swarm(n) => run_swarm_mode(&args, n),
    }
}
