//! Heap allocations of the client's vote tally, counted.
//!
//! A counting global allocator, active only on the thread that measures,
//! counts every `alloc`, `alloc_zeroed` and `realloc` while a
//! `ClientCore` of a four-replica deployment (f = 1) submits requests of
//! 50 one-write transactions and tallies the four reply envelopes that
//! answer each, as a benchmark client does. The envelopes are built
//! before counting starts, and the effect buffer is reused across steps
//! as `ClientSession` reuses it, so the count is the core's own.
//!
//! What a completed transaction still allocates is the copy of it the
//! core keeps for retransmission (its operation list and its value);
//! each request adds its send's destination list. Zyzzyva's fast path
//! also keeps its voters' envelope signatures, which a commit
//! certificate would forward: one list per transaction, one copy of
//! each signature per envelope.
//!
//! Its own test binary, so the allocator it installs counts nothing else.

use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    ClientId, Digest, Operation, ProtocolKind, ReplicaId, SeqNum, SignatureBytes, Transaction,
    ViewNum,
};
use rdb_consensus::{ClientCore, ClientEffect, ClientInput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

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

/// Transactions per request: one benchmark session's burst.
const BURST: u64 = 50;
/// Requests counted, after one of warm-up.
const COUNTED: u64 = 40;
/// Replicas (f = 1); every one answers every request.
const N: u32 = 4;

/// Request `r`'s transactions: one 8-byte write each, as in `mem_uniform`.
fn request(r: u64) -> Vec<Transaction> {
    (r * BURST..(r + 1) * BURST)
        .map(|c| {
            let write = Operation::Write {
                key: c,
                value: vec![c as u8; 8],
            };
            Transaction::new(ClientId(7), c, vec![write])
        })
        .collect()
}

/// Replica `replica`'s envelope answering request `r`: each transaction's
/// result is its key, as an executed write echoes it.
fn answer(protocol: ProtocolKind, r: u64, replica: u32) -> SignedMessage {
    let results = (r * BURST..(r + 1) * BURST)
        .map(|c| (c, c.to_le_bytes().to_vec()))
        .collect();
    let (client, replica_id) = (ClientId(7), ReplicaId(replica));
    let msg = match protocol {
        ProtocolKind::Pbft => Message::ClientReply {
            view: ViewNum(0),
            client,
            replica: replica_id,
            results,
        },
        ProtocolKind::Zyzzyva => Message::SpecResponse {
            view: ViewNum(0),
            seq: SeqNum(r + 1),
            digest: Digest([r as u8; 32]),
            history: Digest([2; 32]),
            client,
            replica: replica_id,
            results,
        },
    };
    let sig = SignatureBytes(vec![replica as u8; 16]);
    SignedMessage::new(msg, Sender::Replica(replica_id), sig)
}

/// Allocations per completed transaction over `COUNTED` requests.
fn allocations_per_txn(protocol: ProtocolKind) -> f64 {
    let now = Instant::now();
    let mut core = ClientCore::new(ClientId(7), protocol, 1, 1, N as usize, now);
    let mut fx = Vec::new();
    let mut completed = 0;
    for r in 0..=COUNTED {
        let txns = request(r);
        let answers: Vec<SignedMessage> = (0..N).map(|i| answer(protocol, r, i)).collect();
        // Request 0 warms up the core's request list and the effects.
        MEASURING.with(|m| m.set(r > 0));
        core.step(ClientInput::Submit(txns), now, &mut fx);
        fx.clear();
        for sm in answers {
            core.step(ClientInput::Reply(sm), now, &mut fx);
            if r > 0 {
                let done = fx.iter();
                completed += done
                    .filter(|e| matches!(e, ClientEffect::Complete { .. }))
                    .count();
            }
            fx.clear();
        }
        MEASURING.with(|m| m.set(false));
        assert_eq!(core.pending(), 0, "request {r} completed");
    }
    assert_eq!(completed as u64, COUNTED * BURST);
    let allocations = ALLOCATIONS.with(|n| n.replace(0));
    let per_txn = allocations as f64 / completed as f64;
    eprintln!("{protocol:?}: {allocations} allocations, {per_txn:.3} per completed transaction");
    per_txn
}

#[test]
fn a_pbft_tally_allocates_only_the_retransmission_copy() {
    let per_txn = allocations_per_txn(ProtocolKind::Pbft);
    // 2.02 measured: the kept transaction's operation list and value
    // (2) plus the send's destination list (1 per 50). 6.02 while each
    // tally kept its own result, voter list and group list and each
    // completion copied the result again.
    assert!(per_txn <= 2.05, "{per_txn:.3} allocations per transaction");
}

#[test]
fn a_zyzzyva_fast_path_tally_adds_only_the_certificate_signatures() {
    let per_txn = allocations_per_txn(ProtocolKind::Zyzzyva);
    // 3.18 measured: PBFT's 2.02, plus each tally's signature list (1)
    // and one shared copy of each envelope's signature (2 per envelope,
    // 0.16 per transaction). 10.10 while each tally kept its own result,
    // group list and signature copies and each completion copied the
    // result again.
    assert!(per_txn <= 3.20, "{per_txn:.3} allocations per transaction");
}
