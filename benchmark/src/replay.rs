//! The replay half of the traced pass: the workload's seeded batches are
//! pushed, on one thread, through each layer's public API in pipeline
//! order. Every call is a span; a layer's number is its spans' median.
//!
//! This gives the serial CPU demand of one batch at one replica, free of
//! queueing, wake-ups and contention — which is exactly what the live
//! cluster adds on top, and what `budget.unattributed_share` measures.

use crate::trace::{by_name, Tracer};
use crate::workloads::{Workload, BATCH_SIZE, GROUP_COMMIT_WINDOW_US, REPLICAS, TABLE_SIZE};
use rdb_common::block::BlockCertificate;
use rdb_common::codec::Wire;
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    Batch, ClientId, CryptoScheme, Digest, DurabilityConfig, FsyncMode, ProtocolKind, ReplicaId,
    SeqNum, SignatureBytes, SystemConfig, Transaction, TransportMode, ViewNum,
};
use rdb_consensus::{Action, ConsensusConfig, ReplicaEngine};
use rdb_crypto::{digest, KeyRegistry, PeerClass};
use rdb_net::{Endpoint, NetHandle, Network, NetworkConfig, TcpConfig, TcpTransport};
use rdb_pipeline::{
    conflict_waves, execute_txn, Durability, ExecPool, ExecuteItem, Executor, ParallelExecutor,
    WalEntry,
};
use rdb_storage::blockchain::ChainMode;
use rdb_storage::wal::{FsyncPolicy, Wal};
use rdb_storage::{Blockchain, MemStore, StateStore, WriteRecord};
use rdb_workload::WorkloadGenerator;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Batches replayed through every layer.
const BATCHES: usize = 128;
/// Batches whose WAL append is followed by an explicit sync (an fsync
/// costs milliseconds; this bounds the replay's wall time).
const SYNCED_BATCHES: usize = 24;
/// Ping-pongs for the round-trip measurement.
const PINGS: usize = 200;
/// Execute workers of the wave executor, and its in-order window.
const WAVE_WORKERS: usize = 4;
const WAVE_WINDOW: usize = 4;
/// The verify window the replicas run with.
const VERIFY_WINDOW: usize = 32;

/// Layer numbers by metric name, plus [`REPLICA_US_PER_TXN`].
pub type Numbers = BTreeMap<&'static str, f64>;

/// Key of the replicas' share of the CPU budget: the serial cost of one
/// batch at every live replica, per transaction.
pub const REPLICA_US_PER_TXN: &str = "replay.replica_us_per_txn";

fn replica(i: usize) -> Sender {
    Sender::Replica(ReplicaId(i as u32))
}

fn new_executor(store: Arc<dyn StateStore>) -> Arc<Executor> {
    let chain = Arc::new(parking_lot::Mutex::new(Blockchain::new(
        Digest::ZERO,
        0,
        ChainMode::Certificate,
    )));
    Arc::new(Executor::new(
        ReplicaId(0),
        ProtocolKind::Pbft,
        store,
        chain,
    ))
}

fn fresh_store() -> Arc<MemStore> {
    // The replicas preload 8-byte records whatever the workload writes.
    Arc::new(MemStore::with_table(TABLE_SIZE, 8))
}

/// Four endpoints on the workload's transport.
struct Mesh {
    nets: Vec<NetHandle>,
    eps: Vec<Endpoint>,
}

impl Mesh {
    fn new(mode: TransportMode) -> std::io::Result<Mesh> {
        let nets: Vec<NetHandle> = match mode {
            TransportMode::InMemory => vec![Network::new(NetworkConfig::default()).handle()],
            TransportMode::Tcp => {
                let (peers, listeners) = TcpTransport::bind_loopback_cluster(REPLICAS)?;
                listeners
                    .into_iter()
                    .map(|listener| {
                        TcpTransport::with_listener(
                            TcpConfig {
                                listen: listener.local_addr().ok(),
                                peers: peers.clone(),
                                ..TcpConfig::default()
                            },
                            Some(listener),
                        )
                        .handle()
                    })
                    .collect()
            }
        };
        let eps = (0..REPLICAS)
            .map(|i| nets[i % nets.len()].register(replica(i)))
            .collect();
        Ok(Mesh { nets, eps })
    }

    fn shutdown(self) {
        drop(self.eps);
        for net in &self.nets {
            net.shutdown();
        }
    }
}

/// Replays `w`'s batches and returns the layer numbers. Spans go to
/// `tracer`; WAL files go under `scratch`.
pub fn run(
    w: &Workload,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<Numbers> {
    let requests_per_batch = BATCH_SIZE / w.burst;
    let live = if w.backup_down {
        REPLICAS - 1
    } else {
        REPLICAS
    };
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, REPLICAS, w.sessions, 42);
    let primary = registry.provider_for_replica(ReplicaId(0));
    let backup = registry.provider_for_replica(ReplicaId(1));
    let clients: Vec<_> = (0..w.sessions)
        .map(|c| registry.provider_for_client(ClientId(c as u64)))
        .collect();
    let mut gen = WorkloadGenerator::new(w.generator(), seed);

    // --- executors, stores, logs -----------------------------------------
    let durability_config = DurabilityConfig {
        data_dir: Some(scratch.display().to_string()),
        fsync: FsyncMode::Group,
        group_commit_window_us: GROUP_COMMIT_WINDOW_US,
    };
    let serial = new_executor(fresh_store());
    if w.durable {
        let (d, _) = Durability::open(&scratch.join("replay-e1"), &durability_config)?;
        serial.set_durability(Arc::new(d));
    }
    let wave = ParallelExecutor::new(
        new_executor(fresh_store()),
        ExecPool::new("replay", WAVE_WORKERS, Vec::new()),
    );
    let apply_store = fresh_store();
    let mut chain = Blockchain::new(Digest::ZERO, 0, ChainMode::Certificate);
    let pipeline_wal = if w.durable {
        Some(Durability::open(&scratch.join("replay-wal"), &durability_config)?.0)
    } else {
        None
    };
    // Group policy with a window that never elapses: appends only mark
    // the log dirty, and the explicit `sync` below is the one fsync.
    let (raw_wal, _) = Wal::open(
        scratch.join("replay-raw.log"),
        FsyncPolicy::Group(Duration::from_secs(3_600)),
    )?;

    // --- consensus: four engines on this thread ---------------------------
    let checkpoint_batches = SystemConfig::new(REPLICAS)
        .expect("four replicas are a legal cluster")
        .checkpoint_interval
        / BATCH_SIZE as u64;
    let mut engines: Vec<ReplicaEngine> = (0..REPLICAS)
        .map(|i| {
            ReplicaEngine::new(
                ProtocolKind::Pbft,
                ReplicaId(i as u32),
                ConsensusConfig::new(REPLICAS, checkpoint_batches),
            )
        })
        .collect();
    let mut consensus_msgs = 0u64;
    let mut consensus_commits = 0u64;

    let mesh = Mesh::new(w.transport)?;
    let peers: Vec<Sender> = (1..REPLICAS).map(replica).collect();

    let mut verify_queue: Vec<SignedMessage> = Vec::with_capacity(VERIFY_WINDOW);
    let mut wave_items: Vec<ExecuteItem> = Vec::with_capacity(WAVE_WINDOW);
    let mut envelope_bytes = 0usize;
    let mut wave_count = 0usize;

    for b in 0..BATCHES {
        let id = b as u64;
        tracer.span("replay.batch", id, |t| -> std::io::Result<()> {
            // workload: one request per `burst` transactions.
            let bursts: Vec<(ClientId, Vec<Transaction>)> = t.span("workload.gen", id, |_| {
                (0..requests_per_batch)
                    .map(|r| {
                        let c = ClientId(((b * requests_per_batch + r) % w.sessions) as u64);
                        (c, gen.next_client_batch(c, w.burst))
                    })
                    .collect()
            });

            // crypto: the client signs each request; the primary's batch
            // thread verifies them a window at a time.
            for (c, txns) in &bursts {
                let signed = t.span("crypto.client_sign", id, |_| {
                    SignedMessage::sign_with(
                        Message::ClientRequest { txns: txns.clone() },
                        Sender::Client(*c),
                        |bytes| clients[c.as_usize()].sign(PeerClass::Replica, bytes),
                    )
                });
                verify_queue.push(signed);
                if verify_queue.len() == VERIFY_WINDOW {
                    let ok = t.span("crypto.client_verify_window", id, |_| {
                        let items: Vec<(Sender, &[u8], &SignatureBytes)> = verify_queue
                            .iter()
                            .map(|m| (m.sender(), m.signing_bytes(), m.sig()))
                            .collect();
                        primary.verify_batch(&items)
                    });
                    assert!(ok.iter().all(|v| *v), "replayed client signature rejected");
                    verify_queue.clear();
                }
            }

            let batch = Batch::new(bursts.into_iter().flat_map(|(_, txns)| txns).collect());
            let batch_digest = t.span("crypto.batch_digest", id, |_| {
                digest(&batch.canonical_bytes())
            });
            let batch = Arc::new(batch);

            // common: the PrePrepare envelope, encoded once and decoded
            // at each receiver.
            let pre_prepare = SignedMessage::new(
                Message::PrePrepare {
                    view: ViewNum(0),
                    seq: SeqNum(id + 1),
                    digest: batch_digest,
                    batch: Arc::clone(&batch),
                },
                replica(0),
                SignatureBytes(vec![0; 16]),
            );
            let wire = t.span("common.encode_preprepare", id, |_| pre_prepare.encode());
            envelope_bytes += wire.len();
            let decoded = t.span("common.decode_preprepare", id, |_| {
                SignedMessage::decode(&wire)
            });
            assert!(decoded.is_ok(), "PrePrepare does not round-trip");

            // crypto: replica-to-replica MACs, on the batch-carrying
            // PrePrepare and on a vote.
            t.span("crypto.mac_preprepare", id, |_| {
                let tag = primary.sign(PeerClass::Replica, pre_prepare.signing_bytes());
                assert!(backup.verify(replica(0), pre_prepare.signing_bytes(), &tag));
            });
            t.span("crypto.mac_vote", id, |_| {
                let vote = SignedMessage::sign_with(
                    Message::Prepare {
                        view: ViewNum(0),
                        seq: SeqNum(id + 1),
                        digest: batch_digest,
                    },
                    replica(0),
                    |bytes| primary.sign(PeerClass::Replica, bytes),
                );
                assert!(backup.verify(vote.sender(), vote.signing_bytes(), vote.sig()));
            });

            // consensus: propose at the primary and deliver every action
            // by hand until all live replicas have committed.
            t.span("consensus.engine", id, |_| {
                let mut wires: VecDeque<(usize, SignedMessage)> = VecDeque::new();
                let acts = engines[0].propose((*batch).clone(), batch_digest);
                let mut pending = vec![(0usize, acts)];
                loop {
                    while let Some((from, acts)) = pending.pop() {
                        for act in acts {
                            match act {
                                Action::Broadcast(msg) => {
                                    let sm = SignedMessage::new(
                                        msg,
                                        replica(from),
                                        SignatureBytes(vec![from as u8; 16]),
                                    );
                                    for dest in (0..live).filter(|d| *d != from) {
                                        wires.push_back((dest, sm.clone()));
                                    }
                                }
                                Action::SendReplica(r, msg) if r.as_usize() < live => {
                                    wires.push_back((
                                        r.as_usize(),
                                        SignedMessage::new(
                                            msg,
                                            replica(from),
                                            SignatureBytes(vec![from as u8; 16]),
                                        ),
                                    ));
                                }
                                Action::CommitBatch { seq, digest, .. } => {
                                    consensus_commits += 1;
                                    // Executed at once: feeds checkpointing.
                                    pending.push((from, engines[from].on_executed(seq, digest)));
                                }
                                _ => {}
                            }
                        }
                    }
                    let Some((dest, sm)) = wires.pop_front() else {
                        break;
                    };
                    consensus_msgs += 1;
                    pending.push((dest, engines[dest].on_message(&sm)));
                }
            });

            // net: the PrePrepare to three peers, send → all delivered.
            t.span("net.broadcast", id, |_| {
                mesh.eps[0]
                    .broadcast(&peers, &pre_prepare)
                    .expect("replay broadcast");
                for ep in &mesh.eps[1..] {
                    ep.recv_timeout(Duration::from_secs(10))
                        .expect("replayed PrePrepare not delivered");
                }
            });

            // pipeline: serial execution (apply, state digest, chain
            // append, WAL and reply construction inside).
            let item = ExecuteItem {
                seq: SeqNum(id + 1),
                view: ViewNum(0),
                digest: batch_digest,
                batch: Arc::clone(&batch),
                certificate: BlockCertificate::default(),
                history: None,
            };
            let (_, replies) = t.span("pipeline.execute_e1", id, |_| serial.execute(&item));

            // crypto: the output threads MAC one reply per transaction.
            t.span("crypto.reply_mac", id, |_| {
                for out in replies {
                    black_box(SignedMessage::sign_with(out.msg, replica(0), |bytes| {
                        primary.sign(PeerClass::Client, bytes)
                    }));
                }
            });

            // pipeline: the conflict-wave executor, a window at a time.
            let refs: Vec<&Transaction> = batch.txns.iter().collect();
            wave_count += conflict_waves(&refs).len();
            wave_items.push(item.clone());
            if wave_items.len() == WAVE_WINDOW {
                t.span("pipeline.execute_e4_window", id, |_| {
                    black_box(wave.execute_window(&wave_items));
                });
                wave_items.clear();
            }

            // storage: the pieces of the commit step, each on its own.
            let writes: Vec<WriteRecord> = batch
                .txns
                .iter()
                .flat_map(|txn| execute_txn(txn, |k| apply_store.get(k)).writes)
                .collect();
            t.span("storage.apply", id, |_| apply_store.apply(&writes));
            let state = t.span("storage.state_digest", id, |_| apply_store.state_digest());
            t.span("storage.chain_append", id, |_| {
                chain
                    .append(
                        SeqNum(id + 1),
                        batch_digest,
                        ViewNum(0),
                        BlockCertificate::default(),
                        batch.len() as u32,
                        state,
                    )
                    .map(|_| ())
            })
            .expect("replay appends in sequence");

            // pipeline + storage: the log record of this batch.
            let entry = WalEntry::Commit {
                seq: SeqNum(id + 1),
                view: ViewNum(0),
                digest: batch_digest,
                batch: (*batch).clone(),
                certificate: BlockCertificate::default(),
                history: None,
            };
            if let Some(d) = &pipeline_wal {
                t.span("pipeline.wal", id, |_| d.log(&entry));
            }
            let payload = entry.encode();
            t.span("storage.wal_append", id, |_| raw_wal.append(&payload))?;
            if b < SYNCED_BATCHES {
                t.span("storage.wal_sync", id, |_| raw_wal.sync())?;
            }
            Ok(())
        })?;
    }

    // net: sequential ping-pong against an echo thread.
    let ping = SignedMessage::new(
        Message::Prepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
        },
        replica(0),
        SignatureBytes(vec![0; 16]),
    );
    std::thread::scope(|scope| {
        let echo = &mesh.eps[1];
        let pong = ping.clone();
        scope.spawn(move || {
            for _ in 0..PINGS {
                if echo.recv_timeout(Duration::from_secs(10)).is_err() {
                    return;
                }
                let _ = echo.send(replica(0), pong.clone());
            }
        });
        for i in 0..PINGS {
            tracer.span("net.rtt", i as u64, |_| {
                mesh.eps[0].send(replica(1), ping.clone()).expect("ping");
                mesh.eps[0]
                    .recv_timeout(Duration::from_secs(10))
                    .expect("pong lost");
            });
        }
    });
    mesh.shutdown();

    let fsyncs = pipeline_wal.as_ref().map_or(0, Durability::wal_syncs);
    drop(pipeline_wal);
    drop(raw_wal);

    // --- numbers -----------------------------------------------------------
    // Each timing is the median over its spans (one per batch), scaled
    // to the metric's unit and denominator.
    let spans = by_name(tracer.spans());
    let per_batch = BATCH_SIZE as f64;
    let mut n = Numbers::new();
    for (metric, span, scale) in [
        ("workload.gen_ns_per_txn", "workload.gen", 1e3 / per_batch),
        ("crypto.client_sign_us", "crypto.client_sign", 1.0),
        (
            "crypto.client_verify_us_per_req",
            "crypto.client_verify_window",
            1.0 / VERIFY_WINDOW as f64,
        ),
        ("crypto.mac_ns_per_msg", "crypto.mac_vote", 1e3),
        ("crypto.mac_preprepare_us", "crypto.mac_preprepare", 1.0),
        (
            "crypto.reply_mac_us_per_txn",
            "crypto.reply_mac",
            1.0 / per_batch,
        ),
        ("crypto.batch_digest_us", "crypto.batch_digest", 1.0),
        (
            "common.encode_preprepare_us",
            "common.encode_preprepare",
            1.0,
        ),
        (
            "common.decode_preprepare_us",
            "common.decode_preprepare",
            1.0,
        ),
        ("consensus.engine_us_per_batch", "consensus.engine", 1.0),
        ("net.broadcast_us", "net.broadcast", 1.0),
        ("net.rtt_p50_us", "net.rtt", 1.0),
        (
            "pipeline.execute_us_per_batch.e1",
            "pipeline.execute_e1",
            1.0,
        ),
        (
            "pipeline.execute_us_per_batch.e4",
            "pipeline.execute_e4_window",
            1.0 / WAVE_WINDOW as f64,
        ),
        ("pipeline.wal_us_per_batch", "pipeline.wal", 1.0),
        ("storage.apply_us_per_batch", "storage.apply", 1.0),
        ("storage.state_digest_us", "storage.state_digest", 1.0),
        ("storage.chain_append_us", "storage.chain_append", 1.0),
        ("storage.wal_append_us", "storage.wal_append", 1.0),
        ("storage.wal_sync_us", "storage.wal_sync", 1.0),
    ] {
        // A span that never ran (the pipeline WAL of a memory-only
        // workload) reads 0.
        n.insert(
            metric,
            spans.get(span).map_or(0.0, |s| s.median_us() * scale),
        );
    }
    let batches = BATCHES as f64;
    n.insert(
        "common.envelope_bytes_per_txn",
        envelope_bytes as f64 / (batches * per_batch),
    );
    n.insert("consensus.msgs_per_batch", consensus_msgs as f64 / batches);
    n.insert(
        "pipeline.wave_width",
        batches * per_batch / wave_count.max(1) as f64,
    );
    n.insert("pipeline.fsyncs_per_batch", fsyncs as f64 / batches);

    assert_eq!(
        consensus_commits,
        (BATCHES * live) as u64,
        "every live engine commits every replayed batch"
    );

    // Serial CPU one batch costs the replicas, from the numbers above
    // times how many replicas perform each step (the client's share is
    // measured live and added by the caller).
    let l = live as f64;
    let vote_deliveries = (l - 1.0) * (l - 1.0) + l * (l - 1.0);
    let vote_broadcasts = (l - 1.0) + l;
    let execute = if w.threads.execute_threads >= 2 {
        n["pipeline.execute_us_per_batch.e4"]
    } else {
        n["pipeline.execute_us_per_batch.e1"]
    };
    let decode = match w.transport {
        TransportMode::Tcp => n["common.decode_preprepare_us"] * (l - 1.0),
        TransportMode::InMemory => 0.0,
    };
    let replica_us_per_batch = requests_per_batch as f64 * n["crypto.client_verify_us_per_req"]
        + n["crypto.batch_digest_us"]
        + n["common.encode_preprepare_us"]
        + decode
        // tag at the primary, verify at each live backup
        + n["crypto.mac_preprepare_us"] / 2.0 * l
        + n["crypto.mac_ns_per_msg"] / 1e3 / 2.0 * (vote_deliveries + vote_broadcasts)
        + n["consensus.engine_us_per_batch"]
        + n["net.broadcast_us"]
        + execute * l
        + n["crypto.reply_mac_us_per_txn"] * BATCH_SIZE as f64 * l;
    n.insert(REPLICA_US_PER_TXN, replica_us_per_batch / BATCH_SIZE as f64);
    Ok(n)
}

/// What `rdb_sim`'s calibrated model predicts for this workload's
/// configuration on this many cores.
pub fn predicted_tps(w: &Workload, cores: usize) -> f64 {
    let mut system = SystemConfig::new(REPLICAS).expect("four replicas are a legal cluster");
    system.batch_size = BATCH_SIZE;
    system.threads = w.threads;
    system.ops_per_txn = w.ops_per_txn;
    system.table_size = TABLE_SIZE;
    system.cores = cores;
    // The model is closed-loop only: for the open workload this is the
    // capacity its sessions could drive, not the offered rate.
    system.num_clients = w.sessions * w.burst;
    let mut sim = rdb_sim::SimConfig::new(system);
    sim.link_latency_us = 0.0;
    sim.failures = usize::from(w.backup_down);
    sim.warmup_ms = 200;
    sim.measure_ms = 600;
    sim.run().throughput_tps
}
