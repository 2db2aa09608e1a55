//! Heap allocations of one `CryptoProvider::verify`, counted.
//!
//! A counting global allocator, active only on the thread that measures,
//! counts every `alloc`, `alloc_zeroed` and `realloc` while a replica's
//! provider verifies:
//!
//! - an Ed25519-signed client request under a key verified before (the
//!   steady state: a client's key checks every request it sends; the
//!   key's tables are built on its first verification);
//! - a CMAC tag on a replica message.
//!
//! Both must allocate nothing. Its own test binary, so the allocator it
//! installs counts nothing else.

use rdb_common::messages::Sender;
use rdb_common::{ClientId, CryptoScheme, ReplicaId};
use rdb_crypto::{KeyRegistry, PeerClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_verify_allocates_nothing() {
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 1, 5);
    let replica = registry.provider_for_replica(ReplicaId(0));
    let client = Sender::Client(ClientId(0));
    let request = vec![0xab; 100];
    let sig = registry
        .provider_for_client(ClientId(0))
        .sign(PeerClass::Replica, &request);
    // The key's first verification builds its tables.
    assert!(replica.verify(client, &request, &sig));
    let mut ok = false;
    let n = allocations(|| ok = replica.verify(client, &request, &sig));
    assert!(ok, "the signed request verifies");
    assert_eq!(n, 0, "allocations per Ed25519 verify under a known key");

    let peer = Sender::Replica(ReplicaId(1));
    let prepare = vec![0xcd; 80];
    let tag = registry
        .provider_for_replica(ReplicaId(1))
        .sign(PeerClass::Replica, &prepare);
    assert_eq!(tag.len(), 16, "a replica link is MAC'd");
    let n = allocations(|| ok = replica.verify(peer, &prepare, &tag));
    assert!(ok, "the tag verifies");
    assert_eq!(n, 0, "allocations per CMAC verify");
}
