//! The loopback cluster runner: four `rdb-node` replica *processes* plus
//! an in-process client session, over real TCP sockets. This is the
//! in-tree twin of the `tcp-cluster-smoke` CI job (which additionally
//! runs the client as its own process).

use rdb_common::{ClientId, PeerMap, ReplicaId};
use resilientdb::{client_net, registry_for, ClientSession, NodeOptions};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TXNS: u64 = 60;
const BATCH: usize = 10;

fn wait_secs() -> u64 {
    std::env::var("RDB_TEST_WAIT_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Kills leftover children if the test panics.
struct ClusterGuard(Vec<Child>);

impl Drop for ClusterGuard {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reserves `n` distinct loopback ports by binding and releasing them.
fn reserve_ports(n: usize) -> PeerMap {
    let mut peers = PeerMap::new();
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    for (i, l) in listeners.iter().enumerate() {
        peers.insert(ReplicaId(i as u32), l.local_addr().unwrap());
    }
    peers
}

/// Spawns 4 replica processes on freshly reserved ports. Returns the
/// peer map and children, or `None` if any replica died immediately
/// (almost certainly a lost bind race: the reserved ports are released
/// before the children re-bind them, and another test or process can
/// snatch one in between).
fn try_spawn_cluster(bin: &str) -> Option<(PeerMap, ClusterGuard)> {
    let peers = reserve_ports(4);
    let peer_flag = peers.to_flag();
    let children: Vec<Child> = (0..4)
        .map(|i| {
            Command::new(bin)
                .args([
                    "--replica",
                    &i.to_string(),
                    "--peers",
                    &peer_flag,
                    "--batch-size",
                    &BATCH.to_string(),
                    "--exit-after-txns",
                    &TXNS.to_string(),
                    "--report-every-ms",
                    "200",
                    "--run-secs",
                    &wait_secs().to_string(),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn rdb-node replica")
        })
        .collect();
    let mut guard = ClusterGuard(children);
    // A replica that lost the port race exits within milliseconds; give
    // the children a beat and check they are all still up.
    std::thread::sleep(Duration::from_millis(500));
    let any_dead = guard
        .0
        .iter_mut()
        .any(|c| c.try_wait().expect("try_wait").is_some());
    if any_dead {
        return None; // guard kills the survivors on drop
    }
    Some((peers, guard))
}

#[test]
fn four_replica_process_cluster_commits_and_converges() {
    let bin = env!("CARGO_BIN_EXE_rdb-node");
    let deadline = Instant::now() + Duration::from_secs(wait_secs());
    let mut attempt = 0;
    let (peers, mut guard) = loop {
        attempt += 1;
        match try_spawn_cluster(bin) {
            Some(cluster) => break cluster,
            None if attempt < 3 => eprintln!("port race on attempt {attempt}, retrying"),
            None => panic!("replicas kept dying at startup after {attempt} attempts"),
        }
    };

    // Drive the workload from this process through the same fabric entry
    // point the client binary uses.
    let node_cfg = {
        let mut cfg = NodeOptions::new(peers).expect("valid peer map");
        cfg.system.batch_size = BATCH;
        cfg
    };
    let client_net = client_net(&node_cfg, None).expect("client transport");
    let mut session = ClientSession::connect(
        ClientId(0),
        &client_net,
        &registry_for(&node_cfg),
        node_cfg.system.protocol,
        node_cfg.system.f,
        node_cfg.system.consensus_instances,
        node_cfg.system.n,
    );
    let mut done = 0u64;
    let mut submitted = 0u64;
    while submitted < TXNS {
        let burst = (BATCH as u64).min(TXNS - submitted);
        let txns: Vec<_> = (0..burst)
            .map(|i| session.write_txn((submitted + i) % 1024, vec![1, 2, 3]))
            .collect();
        submitted += burst;
        done += session.submit_and_wait(txns, Duration::from_secs(wait_secs())) as u64;
    }
    assert_eq!(done, TXNS, "client must complete every transaction");

    // Every replica process must exit 0 with a FINAL line, all digests
    // bit-identical.
    let mut finals = Vec::new();
    for (i, mut child) in guard.0.drain(..).enumerate() {
        loop {
            match child.try_wait().expect("try_wait") {
                Some(_) => break,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(100)),
                None => {
                    let _ = child.kill();
                    panic!("replica {i} did not reach {TXNS} executed txns in time");
                }
            }
        }
        let out = child.wait_with_output().expect("collect output");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "replica {i} exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let final_line = stdout
            .lines()
            .find(|l| l.starts_with("FINAL "))
            .unwrap_or_else(|| panic!("replica {i} printed no FINAL line:\n{stdout}"))
            .to_string();
        assert!(
            final_line.contains(&format!("executed={TXNS}")),
            "replica {i}: {final_line}"
        );
        let digest = final_line
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("digest="))
            .unwrap_or_else(|| panic!("no digest in: {final_line}"))
            .to_string();
        finals.push(digest);
    }
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "state digests diverged across replica processes: {finals:?}"
    );
    client_net.shutdown();
}
