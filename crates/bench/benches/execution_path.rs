//! Execution-path benchmark: deterministic parallel execution vs the
//! serial execute-thread, across the contention spectrum.
//!
//! Sweeps `execute_threads ∈ {1, 2, 4, 8}` × {low, high} contention over
//! identical committed workloads and reports executed-transaction
//! throughput. `threads = 1` is the paper's serial executor
//! (`Executor::execute` draining sequences in order); `threads ≥ 2` is the
//! conflict-wave scheduler fanning non-conflicting transactions across an
//! `ExecPool`. Low contention spreads keys uniformly over the table
//! (waves stay wide); high contention pins 95% of operations to 8 hot
//! keys, which chains most transactions into deep waves — the honest case
//! where parallel execution cannot beat serial by much and mostly pays
//! scheduling overhead.
//!
//! Two storage backends bound the story:
//!
//! - `mem` — the in-memory store: execution cost is pure CPU (record
//!   hashing), so the sweep scales with *physical cores*. On a
//!   single-core container it records scheduling overhead (< 1×); on a
//!   multicore machine (e.g. the CI runner) it shows the core-scaling win.
//! - `io` — a paged storage class (the SQLite side of the paper's
//!   Figure 14): every record read pays a blocking ~20µs I/O latency.
//!   Here the worker pool overlaps the waits, so the speedup is real even
//!   on one core — this is the execution/validation bottleneck case the
//!   parallel executor is built for.
//!
//! A third sweep (`execution/wal/…`) attaches the durable write-ahead
//! log to the serial executor and varies the fsync policy — `always`,
//! group-commit windows of 250µs/1ms/4ms, `never` — recording both
//! throughput and the number of fsyncs actually issued, so the JSON
//! captures how group commit amortizes the one-fsync-per-batch cost of
//! `always` down to roughly one per window.
//!
//! Three rows stand apart from the sweeps and time the state commitment by
//! itself at the shape of `mem_uniform` in the repo's benchmark —
//! `MemStore::apply` of 50 uniform 8-byte writes over a 65 536-row table,
//! the root asked for once per 200-batch checkpoint interval:
//! `merkle/touch/50w_64k` is one `apply` (bucket edits, no tree hash),
//! `merkle/flush/10k_dirty_64k` the `state_digest()` at the boundary that
//! re-hashes what the interval dirtied, and `merkle/apply/50w_64k` their
//! sum per batch — `apply` plus the amortised flush, what a batch costs
//! the execute stage. µs each.
//!
//! `execute/mem_uniform_shape/us_per_txn` times the whole serial execute
//! step at that shape — `Executor::execute` of one session's 50
//! one-write transactions per batch, PBFT, a mark every 200 batches, the
//! boundary's flush included — in µs per transaction.
//!
//! Two more time the serving snapshot at the same shape (200-batch
//! checkpoint interval): `snapshot/capture/64k` is what the commit that
//! crosses a checkpoint boundary costs over its neighbours, not counting
//! the interval's Merkle flush (the row above) — a mark, not a copy of the
//! table — and `snapshot/materialize/64k_10k_dirty` is the
//! first `latest_snapshot()` one interval later, the copy a
//! state-transferring peer (or a stable checkpoint going to disk) pays for
//! on demand. Both in µs.
//!
//! `durable/note_stable/64k/{persist,log_only}` time a durable replica's
//! stable checkpoint at that shape, in µs: `persist` when the WAL had
//! grown as large as the last snapshot, so the checkpoint materialised,
//! saved and fsynced the snapshot and compacted the log; `log_only` when
//! it appended the `Stable` marker alone.
//!
//! It writes `BENCH_execution.json` at the workspace root through
//! [`rdb_bench::report`], whose envelope names the CPU count and the
//! SHA-256 backend the `mem` and `merkle` rows ran on, so the perf
//! trajectory is recorded, not asserted — CI runs this bench with a short
//! window and uploads the file.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdb_bench::report::{Length, Report};
use rdb_common::block::BlockCertificate;
use rdb_common::{
    Batch, ClientId, Digest, DurabilityConfig, FsyncMode, Operation, ProtocolKind, ReplicaId,
    SeqNum, Transaction, ViewNum,
};
use rdb_pipeline::queues::ExecuteItem;
use rdb_pipeline::scheduler::{ExecPool, ParallelExecutor};
use rdb_pipeline::{Durability, Executor};
use rdb_storage::blockchain::ChainMode;
use rdb_storage::{Blockchain, MemStore, StateStore, WriteRecord};
use rdb_workload::{WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLE_SIZE: u64 = 8_192;
const BATCH_TXNS: usize = 256;
const OPS_PER_TXN: usize = 4;
const VALUE_SIZE: usize = 128;
/// Window width for the parallel executor (matches the replica default).
const WINDOW: usize = 4;
/// Simulated per-read I/O latency of the `io` backend.
const IO_DELAY: Duration = Duration::from_micros(20);

/// A MemStore whose reads pay a blocking I/O latency — a SQLite-class
/// backend, where the execute stage stalls on the disk.
/// Writes stay fast: the deferred-commit path batches them through
/// `apply`, modeling a write-behind journal.
struct IoStore {
    inner: MemStore,
}

impl StateStore for IoStore {
    fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
        std::thread::sleep(IO_DELAY);
        self.inner.get_into(key, out)
    }

    fn put(&self, key: u64, value: &[u8]) {
        self.inner.put(key, value);
    }

    fn apply_logged(&self, writes: &[WriteRecord], displaced: &mut dyn FnMut(u64, Option<&[u8]>)) {
        self.inner.apply_logged(writes, displaced);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn state_digest(&self) -> Digest {
        self.inner.state_digest()
    }

    fn remove(&self, key: u64) -> bool {
        self.inner.remove(key)
    }

    fn export_records(&self) -> Vec<(u64, Vec<u8>)> {
        self.inner.export_records()
    }

    fn install_records(&self, records: &[(u64, Vec<u8>)]) {
        self.inner.install_records(records);
    }
}

#[derive(Clone, Copy)]
enum Backend {
    Mem,
    Io,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Mem => "mem",
            Backend::Io => "io",
        }
    }

    fn fresh_executor(self) -> Arc<Executor> {
        let store: Arc<dyn StateStore> = match self {
            Backend::Mem => Arc::new(MemStore::with_table(TABLE_SIZE, VALUE_SIZE)),
            Backend::Io => Arc::new(IoStore {
                inner: MemStore::with_table(TABLE_SIZE, VALUE_SIZE),
            }),
        };
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

    /// The `io` backend is read-latency-bound, so its workload carries a
    /// realistic read share; the `mem` workload is the paper's mostly-
    /// write YCSB profile. Fewer batches keep the sleeping sweep short.
    fn workload(self) -> (f64, usize) {
        match self {
            Backend::Mem => (0.9, 24),
            Backend::Io => (0.5, 12),
        }
    }
}

struct Scenario {
    name: &'static str,
    conflict_ratio: f64,
    hot_keys: u64,
}

const SCENARIOS: [Scenario; 2] = [
    Scenario {
        name: "low",
        conflict_ratio: 0.0,
        hot_keys: 16,
    },
    Scenario {
        name: "high",
        conflict_ratio: 0.95,
        hot_keys: 8,
    },
];

/// Builds the committed workload for one scenario: `batches` sequences of
/// `BATCH_TXNS` transactions each, identical across thread counts.
fn build_items(scenario: &Scenario, write_ratio: f64, batches: usize) -> Vec<ExecuteItem> {
    build_sized_items(scenario, write_ratio, batches, BATCH_TXNS)
}

/// As [`build_items`] but with an explicit batch size — the WAL sweep
/// uses small batches so the append stream is dense enough for group
/// commit windows to coalesce anything.
fn build_sized_items(
    scenario: &Scenario,
    write_ratio: f64,
    batches: usize,
    txns_per_batch: usize,
) -> Vec<ExecuteItem> {
    let mut gen = WorkloadGenerator::new(
        WorkloadConfig {
            table_size: TABLE_SIZE,
            ops_per_txn: OPS_PER_TXN,
            write_ratio,
            value_size: VALUE_SIZE,
            payload_bytes: 0,
            zipf_theta: 0.0,
            conflict_ratio: scenario.conflict_ratio,
            hot_keys: scenario.hot_keys,
        },
        42,
    );
    let clients: Vec<ClientId> = (0..64).map(ClientId).collect();
    (0..batches)
        .map(|i| {
            let batch: Batch = gen.next_batch(&clients, txns_per_batch);
            ExecuteItem {
                seq: SeqNum(i as u64 + 1),
                view: ViewNum(0),
                digest: Digest([i as u8; 32]),
                batch: batch.into(),
                certificate: BlockCertificate::default(),
                history: None,
            }
        })
        .collect()
}

/// Executes all items through the serial path with a write-ahead log
/// attached under the given fsync policy; returns (txns/sec, fsyncs
/// issued). One WAL append per committed batch — the group-commit rows
/// show the flusher amortizing many appends into few fsyncs, `always`
/// pays one fsync per batch, `none` bounds the pure append overhead.
fn run_durable(items: &[ExecuteItem], fsync: FsyncMode, window_us: u64, tag: &str) -> (f64, u64) {
    let dir = std::env::temp_dir().join(format!("rdb-walbench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig {
        data_dir: Some(dir.display().to_string()),
        fsync,
        group_commit_window_us: window_us.max(1),
    };
    let executor = Backend::Mem.fresh_executor();
    let (durability, _state) = Durability::open(&dir, &config).expect("open bench WAL");
    let durability = Arc::new(durability);
    executor.set_durability(Arc::clone(&durability));
    let total_txns: usize = items.iter().map(|i| i.batch.len()).sum();
    let start = Instant::now();
    for item in items {
        let (digest, replies) = executor.execute(item);
        std::hint::black_box((digest, replies.len()));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let syncs = durability.wal_syncs();
    drop(durability);
    drop(executor);
    let _ = std::fs::remove_dir_all(&dir);
    (total_txns as f64 / elapsed, syncs)
}

/// Executes all items with `threads` execute workers (1 = serial path)
/// against a fresh store; returns (txns/sec, final state digest).
fn run_once(items: &[ExecuteItem], threads: usize, backend: Backend) -> (f64, Digest) {
    let executor = backend.fresh_executor();
    let total_txns: usize = items.iter().map(|i| i.batch.len()).sum();
    let start;
    if threads == 1 {
        start = Instant::now();
        for item in items {
            let (digest, replies) = executor.execute(item);
            std::hint::black_box((digest, replies.len()));
        }
    } else {
        let pool = ExecPool::new("bench", threads, Vec::new());
        let par = ParallelExecutor::new(Arc::clone(&executor), pool);
        start = Instant::now();
        for window in items.chunks(WINDOW) {
            for out in par.execute_window(window) {
                std::hint::black_box((out.0, out.1.len()));
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (total_txns as f64 / elapsed, executor.store().state_digest())
}

/// The state commitment over a 65 536-row table at the shape of
/// `mem_uniform`: `MemStore::apply` of 50-write batches of uniform keys
/// (record hashes precomputed, as on the execute path) and one
/// `state_digest()` per 200 of them. Mean µs of (one apply with its share
/// of the flush, one flush, one apply alone).
fn merkle_costs_us(intervals: usize) -> (f64, f64, f64) {
    const ROWS: u64 = 65_536;
    const INTERVAL: usize = 200;
    let store = MemStore::with_table(ROWS, 8);
    let mut rng = StdRng::seed_from_u64(7);
    let work: Vec<Vec<WriteRecord>> = (0..intervals * INTERVAL)
        .map(|_| {
            (0..50)
                .map(|_| {
                    WriteRecord::new(
                        rng.gen_range(0..ROWS),
                        rng.gen::<u64>().to_le_bytes().to_vec(),
                    )
                })
                .collect()
        })
        .collect();
    store.apply(&work[0]); // warm-up
    std::hint::black_box(store.state_digest());
    let (mut touch, mut flush) = (Duration::ZERO, Duration::ZERO);
    for interval in work.chunks(INTERVAL) {
        let start = Instant::now();
        for writes in interval {
            store.apply(writes);
        }
        touch += start.elapsed();
        let start = Instant::now();
        std::hint::black_box(store.state_digest());
        flush += start.elapsed();
    }
    let per = |total: Duration, n: usize| total.as_secs_f64() * 1e6 / n as f64;
    (
        per(touch + flush, work.len()),
        per(flush, intervals),
        per(touch, work.len()),
    )
}

/// Checkpoint cost over a 65 536-row table at the shape of `mem_uniform`
/// (a mark every 200 batches of 50 uniform 8-byte writes): mean µs the
/// commit that crosses a boundary costs over the mean of the other
/// commits, the interval's Merkle flush excluded — the capture — and µs for the first `latest_snapshot()` 199
/// batches (≈ 10 000 writes) past the last mark.
fn snapshot_costs_us(intervals: u64) -> (f64, f64) {
    let executor = checkpointing_executor();
    let mut rng = StdRng::seed_from_u64(7);
    let (mut at_boundary, mut elsewhere) = (Duration::ZERO, Duration::ZERO);
    let batches = (intervals + 1) * CHECKPOINT_INTERVAL - 1;
    for seq in 1..=batches {
        let item = uniform_item(seq, &mut rng);
        if seq % CHECKPOINT_INTERVAL == 0 {
            // The boundary commit also brings the Merkle tree up to date
            // (`merkle/flush` times that): do it before the clock starts,
            // so this row keeps timing the mark alone.
            std::hint::black_box(executor.store().state_digest());
        }
        let start = Instant::now();
        std::hint::black_box(executor.execute(&item));
        if seq % CHECKPOINT_INTERVAL == 0 {
            at_boundary += start.elapsed();
        } else {
            elsewhere += start.elapsed();
        }
    }
    let capture = at_boundary.as_secs_f64() / intervals as f64
        - elsewhere.as_secs_f64() / (batches - intervals) as f64;
    let start = Instant::now();
    let snapshot = executor.latest_snapshot().expect("marked");
    let materialize = start.elapsed().as_secs_f64();
    assert_eq!(snapshot.base_seq, SeqNum(intervals * CHECKPOINT_INTERVAL));
    (capture.max(0.0) * 1e6, materialize * 1e6)
}

/// What one stable checkpoint costs a durable replica at the same shape:
/// `Executor::note_stable` for the boundary just executed, WAL under a
/// 4 ms group-commit window as in the benchmark's `tcp_durable`. Mean µs
/// of (the checkpoints that persisted the snapshot, those that only
/// logged the marker); which is which is the persist rule's call — once
/// the log holds as many bytes as the last snapshot.
fn note_stable_costs_us(intervals: u64) -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("rdb-stablebench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig {
        data_dir: Some(dir.display().to_string()),
        fsync: FsyncMode::Group,
        group_commit_window_us: 4_000,
    };
    let executor = checkpointing_executor();
    let (durability, _) = Durability::open(&dir, &config).expect("open bench WAL");
    executor.set_durability(Arc::new(durability));
    let mut rng = StdRng::seed_from_u64(7);
    let (mut persist, mut log_only) = (Vec::new(), Vec::new());
    for seq in 1..=intervals * CHECKPOINT_INTERVAL {
        std::hint::black_box(executor.execute(&uniform_item(seq, &mut rng)));
        if seq % CHECKPOINT_INTERVAL == 0 {
            let start = Instant::now();
            executor.note_stable(SeqNum(seq));
            let took = start.elapsed();
            if dir.join(format!("snapshot-{seq}.snap")).exists() {
                persist.push(took);
            } else {
                log_only.push(took);
            }
        }
    }
    drop(executor);
    let _ = std::fs::remove_dir_all(&dir);
    let mean_us = |d: &[Duration]| {
        assert!(!d.is_empty(), "the rule both persisted and waited");
        d.iter().sum::<Duration>().as_secs_f64() * 1e6 / d.len() as f64
    };
    (mean_us(&persist), mean_us(&log_only))
}

/// Checkpoint interval of the `merkle/`, `snapshot/` and `durable/` rows.
const CHECKPOINT_INTERVAL: u64 = 200;

/// A PBFT executor over a 65 536-row table of 8-byte values that marks a
/// serving snapshot every [`CHECKPOINT_INTERVAL`] batches.
fn checkpointing_executor() -> Executor {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::with_table(65_536, 8));
    let chain = Blockchain::new(Digest::ZERO, 0, ChainMode::Certificate);
    let chain = Arc::new(parking_lot::Mutex::new(chain));
    let executor = Executor::new(ReplicaId(0), ProtocolKind::Pbft, store, chain);
    executor.set_snapshot_interval(CHECKPOINT_INTERVAL);
    executor
}

/// Batch `seq` of 50 one-write transactions of uniform keys and 8-byte
/// values over that table: `mem_uniform`'s shape.
fn uniform_item(seq: u64, rng: &mut StdRng) -> ExecuteItem {
    let batch: Batch = (0..50u64)
        .map(|i| {
            let op = Operation::Write {
                key: rng.gen_range(0..65_536u64),
                value: rng.gen::<u64>().to_le_bytes().to_vec(),
            };
            Transaction::new(ClientId(i), seq, vec![op])
        })
        .collect();
    ExecuteItem {
        seq: SeqNum(seq),
        view: ViewNum(0),
        digest: Digest([seq as u8; 32]),
        batch: batch.into(),
        certificate: BlockCertificate::default(),
        history: None,
    }
}

/// Batch `seq` of `mem_uniform` as a replica executes it: one session's
/// 50-transaction request, each transaction one uniform write of 8 bytes
/// over the 65 536-row table.
fn session_item(seq: u64, rng: &mut StdRng) -> ExecuteItem {
    let batch: Batch = (0..50u64)
        .map(|i| {
            let op = Operation::Write {
                key: rng.gen_range(0..65_536u64),
                value: rng.gen::<u64>().to_le_bytes().to_vec(),
            };
            Transaction::new(ClientId(0), seq * 50 + i, vec![op])
        })
        .collect();
    ExecuteItem {
        batch: batch.into(),
        ..uniform_item(seq, &mut StdRng::seed_from_u64(0))
    }
}

/// `Executor::execute` at `mem_uniform`'s shape, the boundary's Merkle
/// flush included: mean µs per transaction over `intervals` checkpoint
/// intervals, after one interval of warm-up.
fn execute_us_per_txn(intervals: u64) -> f64 {
    let executor = checkpointing_executor();
    let mut rng = StdRng::seed_from_u64(7);
    let items: Vec<ExecuteItem> = (1..=(intervals + 1) * CHECKPOINT_INTERVAL)
        .map(|seq| session_item(seq, &mut rng))
        .collect();
    let (warm, timed) = items.split_at(CHECKPOINT_INTERVAL as usize);
    for item in warm {
        std::hint::black_box(executor.execute(item));
    }
    let start = Instant::now();
    for item in timed {
        std::hint::black_box(executor.execute(item));
    }
    start.elapsed().as_secs_f64() * 1e6 / (timed.len() * 50) as f64
}

fn run_suite(report: &mut Report) {
    let repeats = (report.iters() as usize / 10).clamp(1, 16);

    let execute = (0..repeats)
        .map(|_| execute_us_per_txn(4))
        .fold(f64::INFINITY, f64::min);
    report.record("execute/mem_uniform_shape/us_per_txn", execute);

    let [apply, flush, touch] = (0..repeats)
        .map(|_| merkle_costs_us(2))
        .fold([f64::INFINITY; 3], |best, (a, f, t)| {
            [best[0].min(a), best[1].min(f), best[2].min(t)]
        });
    report.record("merkle/apply/50w_64k", apply);
    report.record("merkle/flush/10k_dirty_64k", flush);
    report.record("merkle/touch/50w_64k", touch);
    let (capture, materialize) = (0..repeats)
        .map(|_| snapshot_costs_us(3))
        .fold((f64::INFINITY, f64::INFINITY), |best, (c, m)| {
            (best.0.min(c), best.1.min(m))
        });
    report.record("snapshot/capture/64k", capture);
    report.record("snapshot/materialize/64k_10k_dirty", materialize);
    let (persist, log_only) = (0..repeats)
        .map(|_| note_stable_costs_us(8))
        .fold((f64::INFINITY, f64::INFINITY), |best, (p, l)| {
            (best.0.min(p), best.1.min(l))
        });
    for (row, us) in [("persist", persist), ("log_only", log_only)] {
        report.record(format!("durable/note_stable/64k/{row}"), us);
    }

    for backend in [Backend::Mem, Backend::Io] {
        let (write_ratio, batches) = backend.workload();
        for scenario in &SCENARIOS {
            let items = build_items(scenario, write_ratio, batches);
            // Determinism cross-check while we are here: every thread
            // count must land on the same final digest.
            let reference = run_once(&items, 1, backend).1;
            let mut serial_tput = 0.0;
            for threads in [1usize, 2, 4, 8] {
                // Warm-up pass, then best-of-N (throughput is noisy in CI).
                let _ = run_once(&items, threads, backend);
                let mut best = 0.0f64;
                for _ in 0..repeats {
                    let (tput, digest) = run_once(&items, threads, backend);
                    assert_eq!(
                        digest, reference,
                        "parallel execution diverged from serial at {threads} threads"
                    );
                    best = best.max(tput);
                }
                report.record(
                    format!(
                        "execution/{}/{}/threads-{threads}",
                        backend.name(),
                        scenario.name
                    ),
                    best,
                );
                if threads == 1 {
                    serial_tput = best;
                } else {
                    report.record(
                        format!(
                            "execution/{}/{}/speedup-{threads}v1",
                            backend.name(),
                            scenario.name
                        ),
                        best / serial_tput,
                    );
                }
            }
        }
    }

    // --- durable-backend sweep: fsync policy × group-commit window ------
    // Serial execution over the low-contention mem workload with the WAL
    // attached. The interesting ratio is txn/s vs the wal/none row (pure
    // append cost) and the fsync counts: group commit collapses one-per-
    // batch fsyncs into one per window.
    let wal_policies: [(&'static str, FsyncMode, u64); 5] = [
        ("always", FsyncMode::Always, 0),
        ("group-250us", FsyncMode::Group, 250),
        ("group-1ms", FsyncMode::Group, 1_000),
        ("group-4ms", FsyncMode::Group, 4_000),
        ("none", FsyncMode::Never, 0),
    ];
    // Small batches (the smoke-test scale) commit fast enough that the
    // wider windows genuinely coalesce several appends per fsync; the
    // 256-txn bench batches would arrive slower than any window.
    let (write_ratio, _) = Backend::Mem.workload();
    let items = build_sized_items(&SCENARIOS[0], write_ratio, 192, 32);
    for (name, fsync, window_us) in wal_policies {
        let _ = run_durable(&items, fsync, window_us, name); // warm-up
        let mut best = 0.0f64;
        let mut syncs = 0u64;
        for _ in 0..repeats {
            let (tput, s) = run_durable(&items, fsync, window_us, name);
            if tput > best {
                best = tput;
                syncs = s;
            }
        }
        report.record(format!("execution/wal/{name}/threads-1"), best);
        report.record(format!("execution/wal/{name}/fsyncs"), syncs as f64);
    }
}

fn main() {
    let Some(mut report) = Report::start(
        "execution_path",
        "BENCH_execution.json",
        "txn/s (execute/mem_uniform_shape/us_per_txn is us per transaction of Executor::execute over \
         50-write batches of one session into a 65536-row table, the checkpoint flush included; \
         merkle/touch is us per 50-write MemStore::apply over a 65536-row table, \
         merkle/flush us for the state_digest() after 200 of them, merkle/apply their sum per batch; \
         snapshot/capture is us a checkpoint-boundary commit costs over its neighbours (flush excluded) and \
         snapshot/materialize us for the first latest_snapshot() 10k writes later, same table; \
         durable/note_stable is us per stable checkpoint on a durable executor over that table, \
         persist when it wrote the snapshot and compacted the WAL, log_only when it only logged the marker; \
         speedup entries are ratios vs the serial execute-thread; \
         mem rows scale with physical cores, io rows with overlapped read latency; \
         wal rows are serial execution with the write-ahead log attached under the \
         named fsync policy, fsyncs rows count syncs for the whole run)",
        // Four repeats per row.
        Length::Iters(40),
    ) else {
        return;
    };
    report.param(
        "workload",
        format!(
            "{BATCH_TXNS} txns/batch x {OPS_PER_TXN} ops, {VALUE_SIZE}B values, \
             table {TABLE_SIZE}, window {WINDOW}; io backend reads pay {}us; \
             wal sweep runs 192 batches x 32 txns; durable rows run 8 checkpoint intervals \
             under a 4ms group-commit window",
            IO_DELAY.as_micros()
        ),
    );
    run_suite(&mut report);
    report.write();
}
