//! The client-load driver: every closed-loop run in the repository goes
//! through [`run_swarm`] — `rdb-node --swarm` and `--client`, the
//! fault-scenario runner, the multi-primary bench and the examples.
//!
//! The paper's experiments run up to 80K clients against a 4–91 replica
//! cluster. A thread per client does not scale to that population, so the
//! driver multiplexes many [`ClientSession`]s onto a small pool of shard
//! threads, pumping each session with the non-blocking
//! [`ClientSession::poll_progress`] (at one clock read per pass) instead
//! of a blocking wait. Over the TCP transport in swarm mode
//! (`TcpConfig::dedicated_to`), every session still owns a real socket to
//! the primary — an N-client swarm exercises N concurrent connections
//! through the reactor.
//!
//! **Refill rule.** A session submits its next burst of
//! [`SwarmConfig::burst`] transactions once its previous burst has
//! completed, until it has submitted [`SwarmConfig::txns_per_client`] or
//! the deadline passes. A deadline-bounded measurement sets
//! `txns_per_client` to `u64::MAX` and reads what committed by then.
//!
//! **Keys.** Client `c`'s `i`-th transaction writes key
//! `(c·txns_per_client + i) mod table_size`, and the value is derived
//! from the key alone. Two writes that wrap onto one key write the same
//! bytes, so the final state digest depends only on which keys were
//! written, never on commit order — a multi-process run can be
//! digest-compared against an in-memory reference run of the same shape,
//! however far its keyspace wraps past the table.
//!
//! **Progress.** While the shards pump, the calling thread runs the
//! caller's progress callback with the committed count so far — at least
//! once per millisecond, and promptly after a burst completes. A session
//! whose burst completed refills only once the callback has seen a count
//! that includes that burst, so whatever the callback does at a count
//! (the fault-scenario runner fires its `Committed` marks there) lands
//! before any load submitted after it.

use crate::client::ClientSession;
use rdb_common::{ClientId, SystemConfig};
use rdb_crypto::KeyRegistry;
use rdb_net::NetHandle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shape of a swarm run.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Concurrent client sessions.
    pub clients: usize,
    /// Transactions each client submits over its lifetime.
    pub txns_per_client: u64,
    /// Transactions per request burst (client-side batching).
    pub burst: usize,
    /// Shard threads the sessions are multiplexed onto.
    pub shards: usize,
    /// First client id; a multi-process swarm partitions the id space by
    /// giving each process a disjoint `[first_client, first_client+clients)`.
    pub first_client: u64,
    /// Overall deadline; the run reports whatever committed by then.
    pub deadline: Duration,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            clients: 1_000,
            txns_per_client: 2,
            burst: 2,
            shards: 8,
            first_client: 0,
            deadline: Duration::from_secs(120),
        }
    }
}

/// What a swarm run measured.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Sessions that ran.
    pub clients: usize,
    /// Transactions submitted.
    pub submitted: u64,
    /// Transactions committed (quorum-confirmed at the clients).
    pub committed: u64,
    /// Wall-clock from first submit to last commit (or the deadline).
    pub elapsed: Duration,
    /// Median request-burst completion latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile burst latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile burst latency, microseconds.
    pub p99_us: u64,
    /// One line per request still pending at exit, prefixed with its
    /// client (`ClientSession::debug_stuck`); empty after a run in which
    /// everything submitted committed.
    pub stuck: Vec<String>,
}

impl SwarmReport {
    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.committed as f64 / secs
        }
    }
}

/// One multiplexed session and its burst state.
struct Pumped {
    session: ClientSession,
    /// When the in-flight burst was submitted.
    burst_started: Option<Instant>,
    /// Committed count the progress callback must have seen before this
    /// session submits its next burst.
    release_at: u64,
}

/// What one shard hands back: transactions submitted, when it finished,
/// burst latencies and the stuck-request lines of its sessions.
type ShardResult = (u64, Duration, Vec<Duration>, Vec<String>);

/// The key client `client`'s `index`-th transaction writes.
fn key_for(client: u64, index: u64, txns_per_client: u64, table_size: u64) -> u64 {
    let slot = u128::from(client) * u128::from(txns_per_client) + u128::from(index);
    (slot % u128::from(table_size.max(1))) as u64
}

/// Runs a swarm of `cfg.clients` sessions against whatever cluster `net`
/// reaches. All processes must share `registry`/`system` so keys match.
/// `progress(committed, elapsed)` runs on the calling thread while the
/// shards pump, and once more at the end with the final count; no session
/// refills until the callback has seen its completed burst.
///
/// # Panics
/// Panics if `cfg.clients` is zero or the registry lacks keys for the id
/// range `[first_client, first_client + clients)`.
pub fn run_swarm(
    net: &NetHandle,
    registry: &KeyRegistry,
    system: &SystemConfig,
    cfg: &SwarmConfig,
    mut progress: impl FnMut(u64, Duration),
) -> SwarmReport {
    assert!(cfg.clients > 0, "swarm needs at least one client");
    let shards = cfg.shards.clamp(1, cfg.clients);
    let burst = cfg.burst.max(1) as u64;
    let start = Instant::now();
    let deadline = start + cfg.deadline;
    let committed = AtomicU64::new(0);
    // The highest committed count the progress callback has returned from.
    let observed = AtomicU64::new(0);
    let caller = std::thread::current();

    // Shard c → sessions c, c+shards, c+2*shards, … so uneven tails stay
    // one session wide.
    let results: Vec<ShardResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let (committed, observed, caller) = (&committed, &observed, &caller);
                scope.spawn(move || {
                    let mut pumped: Vec<Pumped> = (shard..cfg.clients)
                        .step_by(shards)
                        .map(|i| Pumped {
                            session: ClientSession::connect(
                                ClientId(cfg.first_client + i as u64),
                                net,
                                registry,
                                system.protocol,
                                system.f,
                                system.consensus_instances,
                                system.n,
                            ),
                            burst_started: None,
                            release_at: 0,
                        })
                        .collect();
                    let mut submitted = 0u64;
                    let mut samples: Vec<Duration> = Vec::new();
                    loop {
                        // One clock read per pass over the shard's sessions.
                        let now = Instant::now();
                        let mut all_done = true;
                        let mut progressed = false;
                        let mut held = false;
                        for p in &mut pumped {
                            if p.session.pending() > 0 {
                                let c = p.session.poll_at(now) as u64;
                                let total = committed.fetch_add(c, Ordering::AcqRel) + c;
                                progressed |= c > 0;
                                if p.session.pending() == 0 {
                                    p.release_at = total;
                                }
                            }
                            if p.session.pending() == 0 {
                                if let Some(t0) = p.burst_started.take() {
                                    samples.push(now.saturating_duration_since(t0));
                                }
                                let done = p.session.submitted();
                                let wants = done < cfg.txns_per_client;
                                let seen = observed.load(Ordering::Acquire) >= p.release_at;
                                held |= wants && !seen;
                                if wants && seen {
                                    let count = burst.min(cfg.txns_per_client - done);
                                    let client = p.session.id().0;
                                    let txns: Vec<_> = (done..done + count)
                                        .map(|i| {
                                            let key = key_for(
                                                client,
                                                i,
                                                cfg.txns_per_client,
                                                system.table_size,
                                            );
                                            p.session.write_txn(key, key.to_le_bytes().to_vec())
                                        })
                                        .collect();
                                    p.burst_started = Some(now);
                                    p.session.submit(txns);
                                    submitted += count;
                                    progressed = true;
                                }
                            }
                            if p.session.pending() > 0
                                || p.session.submitted() < cfg.txns_per_client
                            {
                                all_done = false;
                            }
                        }
                        if all_done || now > deadline {
                            break;
                        }
                        if held {
                            caller.unpark();
                        }
                        if !progressed {
                            // Nothing arrived this pass: brief nap instead
                            // of a hot spin across thousands of sessions.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    let stuck = pumped
                        .iter()
                        .filter(|p| p.session.pending() > 0)
                        .flat_map(|p| {
                            let client = p.session.id().0;
                            p.session
                                .debug_stuck()
                                .into_iter()
                                .map(move |line| format!("client={client} {line}"))
                        })
                        .collect();
                    (submitted, start.elapsed(), samples, stuck)
                })
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            let seen = committed.load(Ordering::Acquire);
            progress(seen, start.elapsed());
            observed.store(seen, Ordering::Release);
            std::thread::park_timeout(Duration::from_millis(1));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let committed = committed.into_inner();
    let mut submitted = 0;
    let mut elapsed = Duration::ZERO;
    let mut samples: Vec<Duration> = Vec::new();
    let mut stuck: Vec<String> = Vec::new();
    for (s, finished, mut lat, mut lines) in results {
        submitted += s;
        elapsed = elapsed.max(finished);
        samples.append(&mut lat);
        stuck.append(&mut lines);
    }
    progress(committed, elapsed);
    samples.sort_unstable();
    let pct = |p: usize| -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let idx = (samples.len() * p / 100).min(samples.len() - 1);
        samples[idx].as_micros() as u64
    };
    SwarmReport {
        clients: cfg.clients,
        submitted,
        committed,
        elapsed,
        p50_us: pct(50),
        p95_us: pct(95),
        p99_us: pct(99),
        stuck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;

    #[test]
    fn swarm_commits_against_in_memory_fabric() {
        let clients = 64;
        let db = SystemBuilder::new(4)
            .batch_size(16)
            .client_keys(clients)
            .table_size(1_024)
            .build()
            .unwrap();
        let cfg = SwarmConfig {
            clients,
            txns_per_client: 2,
            burst: 2,
            shards: 4,
            first_client: 0,
            deadline: Duration::from_secs(60),
        };
        let mut calls = 0u64;
        let mut last = 0u64;
        let report = db.run_swarm(&cfg, |committed, _| {
            assert!(committed >= last, "the committed count never goes back");
            last = committed;
            calls += 1;
        });
        assert_eq!(report.submitted, clients as u64 * 2);
        assert_eq!(report.committed, report.submitted, "all txns must commit");
        assert_eq!(
            last, report.committed,
            "the last progress call sees the total"
        );
        assert!(calls >= 1);
        assert!(report.stuck.is_empty(), "{:?}", report.stuck);
        assert!(report.p50_us > 0, "latency samples must be recorded");
        assert!(report.tps() > 0.0);
        db.shutdown();
    }

    /// A slow progress callback holds every refill: between two calls each
    /// session completes at most the one burst it had in flight, so the
    /// count a call sees never runs more than `clients × burst` past the
    /// count the previous call saw — a fault fired at a count lands before
    /// any load submitted after it.
    #[test]
    fn no_session_refills_until_the_callback_has_seen_its_burst() {
        let (clients, burst) = (4, 4);
        let db = SystemBuilder::new(4)
            .batch_size(4)
            .client_keys(clients)
            .table_size(1_024)
            .build()
            .unwrap();
        let cfg = SwarmConfig {
            clients,
            txns_per_client: 24,
            burst,
            shards: 2,
            first_client: 0,
            deadline: Duration::from_secs(60),
        };
        let mut seen = vec![0u64];
        let report = db.run_swarm(&cfg, |committed, _| {
            seen.push(committed);
            std::thread::sleep(Duration::from_millis(3));
        });
        db.shutdown();
        assert_eq!(
            report.committed,
            (clients * 24) as u64,
            "{:?}",
            report.stuck
        );
        for pair in seen.windows(2) {
            assert!(
                pair[1] - pair[0] <= (clients * burst) as u64,
                "load ran ahead of the callback: {seen:?}"
            );
        }
    }

    /// Eight clients × 24 transactions wrap three times around a 64-row
    /// table. Values are derived from keys, so two runs with different
    /// burst sizes and shard counts — different commit orders — end on one
    /// state digest, and every replica of each run agrees on it.
    #[test]
    fn a_keyspace_wrapping_past_the_table_commits_to_one_digest() {
        let run = |burst: usize, shards: usize| {
            let db = SystemBuilder::new(4)
                .batch_size(8)
                .client_keys(8)
                .table_size(64)
                .build()
                .unwrap();
            let cfg = SwarmConfig {
                clients: 8,
                txns_per_client: 24,
                burst,
                shards,
                first_client: 0,
                deadline: Duration::from_secs(60),
            };
            let report = db.run_swarm(&cfg, |_, _| {});
            assert_eq!(report.submitted, 8 * 24);
            assert_eq!(report.committed, report.submitted, "{:?}", report.stuck);
            let deadline = Instant::now() + Duration::from_secs(20);
            let digests = loop {
                let digests = db.state_digests();
                let executed: Vec<u64> = (0..4)
                    .map(|r| db.executed_txns(rdb_common::ReplicaId(r)))
                    .collect();
                let caught_up = executed.iter().all(|&e| e == report.committed);
                if (caught_up && digests.windows(2).all(|w| w[0] == w[1]))
                    || Instant::now() > deadline
                {
                    break digests;
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            db.shutdown();
            assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
            digests[0]
        };
        assert_eq!(run(3, 1), run(8, 4));
    }

    #[test]
    fn keys_wrap_modulo_the_table_and_survive_an_unbounded_count() {
        assert_eq!(key_for(2, 5, 10, 1_000), 25);
        assert_eq!(key_for(2, 5, 10, 16), 25 % 16);
        // A deadline-bounded run passes `u64::MAX` transactions per client.
        let wide = key_for(3, 7, u64::MAX, 1_000);
        assert_eq!(u128::from(wide), (3 * u128::from(u64::MAX) + 7) % 1_000);
    }
}
