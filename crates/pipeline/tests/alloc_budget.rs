//! Heap allocations on the serial commit path, counted.
//!
//! A counting global allocator, active only on the thread that measures,
//! counts every `alloc`, `alloc_zeroed` and `realloc` while
//! `Executor::execute` runs batches in the shape of two benchmark
//! workloads, after one checkpoint interval of warm-up:
//!
//! - `mem_uniform`: one session's 50 one-write transactions per batch,
//!   8-byte values over a 65 536-row table, PBFT, a snapshot mark every
//!   200 batches. Each transaction's reply payload is its own `Vec` on the
//!   wire, so one allocation per transaction is the floor; the rest is
//!   what a batch allocates once — the reply envelope, the pre-image log
//!   record — and the log's amortised growth. The certificate moves into
//!   its block. Pinned at the exact count.
//! - `mem_hotkey_rw`: 8 operations per transaction, half of them reads,
//!   256-byte values, Zipfian keys with half the operations on 16 hot
//!   keys; pinned just above its measured count.
//!
//! Its own test binary, so the allocator it installs counts nothing else.

use parking_lot::Mutex;
use rdb_common::block::BlockCertificate;
use rdb_common::{ClientId, Digest, ProtocolKind, ReplicaId, SeqNum, SignatureBytes, ViewNum};
use rdb_pipeline::queues::ExecuteItem;
use rdb_pipeline::Executor;
use rdb_storage::blockchain::ChainMode;
use rdb_storage::{Blockchain, MemStore, StateStore};
use rdb_workload::{WorkloadConfig, WorkloadGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if MEASURING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local, so counting allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows preloaded, as in every benchmark workload.
const ROWS: u64 = 65_536;
/// Transactions per batch: one session's request.
const BATCH: usize = 50;
/// Snapshot mark (and checkpoint) interval, in batches.
const INTERVAL: u64 = 200;
/// Batches counted, after one interval of warm-up.
const COUNTED: u64 = 400;

/// Allocations of `Executor::execute` over `COUNTED` batches of
/// `workload`'s shape, after one interval of warm-up.
fn allocations(workload: WorkloadConfig) -> u64 {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::with_table(ROWS, 8));
    let chain = Blockchain::new(Digest::ZERO, 3, ChainMode::Certificate);
    let executor = Executor::new(
        ReplicaId(0),
        ProtocolKind::Pbft,
        store,
        Arc::new(Mutex::new(chain)),
    );
    executor.set_snapshot_interval(INTERVAL);
    let mut gen = WorkloadGenerator::new(workload, 7);
    let mut warm_up: Vec<ExecuteItem> = (1..=INTERVAL + COUNTED)
        .map(|seq| ExecuteItem {
            seq: SeqNum(seq),
            view: ViewNum(0),
            digest: Digest([seq as u8; 32]),
            batch: Arc::new(
                gen.next_client_batch(ClientId(0), BATCH)
                    .into_iter()
                    .collect(),
            ),
            certificate: BlockCertificate::new(
                (0..3)
                    .map(|r| (ReplicaId(r), SignatureBytes(vec![r as u8; 16])))
                    .collect(),
            ),
            history: None,
        })
        .collect();
    // Owned, as the execute stage owns its windows: each certificate moves
    // into its block.
    let counted = warm_up.split_off(INTERVAL as usize);
    for item in warm_up {
        drop(executor.execute(item));
    }
    MEASURING.with(|m| m.set(true));
    for item in counted {
        drop(executor.execute(item));
    }
    MEASURING.with(|m| m.set(false));
    let allocations = ALLOCATIONS.with(Cell::get);
    let per_txn = allocations as f64 / (COUNTED as usize * BATCH) as f64;
    eprintln!("{allocations} allocations over {COUNTED} batches: {per_txn:.3} per transaction");
    allocations
}

#[test]
fn mem_uniform_commits_with_one_allocation_per_transaction() {
    let n = allocations(WorkloadConfig {
        table_size: ROWS,
        ..WorkloadConfig::default()
    });
    // One per transaction (20 000) plus 7.27 per batch: 1.145 per
    // transaction. A certificate cloned into its block costs 4 per batch.
    assert!(n <= 22_908, "{n} allocations");
}

#[test]
fn mem_hotkey_rw_allocations_are_pinned() {
    let n = allocations(WorkloadConfig {
        table_size: ROWS,
        ops_per_txn: 8,
        write_ratio: 0.5,
        value_size: 256,
        zipf_theta: 0.99,
        conflict_ratio: 0.5,
        hot_keys: 16,
        ..WorkloadConfig::default()
    });
    // Measured 1.575 (31 505 over 400 batches): the reply payloads, plus
    // the first 256-byte write to each preloaded 8-byte row, which moves
    // its value out of the record onto the heap.
    assert!(n <= 32_000, "{n} allocations");
}
