//! A from-scratch file-backed paged store — the SQLite stand-in.
//!
//! Figure 14 of the paper compares in-memory state against SQLite and finds
//! a 94% throughput loss: the execute-thread blocks on per-record file I/O.
//! This module reproduces that storage class honestly: a slotted file of
//! fixed-size records behind a small LRU page cache, with synchronous
//! write-through (like SQLite's journaled writes). Every cache miss pays a
//! real `read`/`write` syscall; every put pays a write (plus an optional
//! `fsync`).

use crate::merkle::MerkleAccumulator;
use crate::store::{record_hash, PreImage, StateStore, WriteRecord};
use parking_lot::Mutex;
use rdb_common::Digest;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Bytes per page.
pub const PAGE_SIZE: usize = 4096;

/// Configuration for a [`PagedStore`].
#[derive(Debug, Clone)]
pub struct PagedStoreConfig {
    /// Maximum record payload size; slots are sized for this.
    pub record_size: usize,
    /// Number of key slots (keys must be `< capacity`).
    pub capacity: u64,
    /// Pages held in the cache before eviction.
    pub cache_pages: usize,
    /// Whether each put issues an `fsync` (SQLite-like durability).
    pub fsync_on_write: bool,
}

impl Default for PagedStoreConfig {
    fn default() -> Self {
        PagedStoreConfig {
            record_size: 64,
            capacity: 600_000,
            cache_pages: 64,
            fsync_on_write: false,
        }
    }
}

/// Slot header: 2-byte length (0xFFFF = empty) stored before the payload.
const SLOT_HDR: usize = 2;
const EMPTY_LEN: u16 = u16::MAX;

struct Page {
    data: Vec<u8>,
    dirty: bool,
    /// LRU tick of the last access.
    last_used: u64,
}

struct PagerState {
    file: File,
    cache: HashMap<u64, Page>,
    tick: u64,
    /// Incremental state commitment — the same Merkle accumulator the
    /// in-memory backend maintains, so both backends agree digest-for-digest.
    merkle: MerkleAccumulator,
    record_count: usize,
    /// Cache statistics: (hits, misses).
    hits: u64,
    misses: u64,
}

/// File-backed slotted record store with an LRU page cache.
pub struct PagedStore {
    config: PagedStoreConfig,
    state: Mutex<PagerState>,
}

impl std::fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedStore")
            .field("record_size", &self.config.record_size)
            .field("capacity", &self.config.capacity)
            .field("cache_pages", &self.config.cache_pages)
            .finish()
    }
}

impl PagedStore {
    /// Creates (or truncates) the store file at `path`.
    ///
    /// # Errors
    /// Returns any I/O error from creating or sizing the file.
    pub fn create(path: &Path, config: PagedStoreConfig) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let slot = config.record_size + SLOT_HDR;
        let total_bytes = (config.capacity as usize * slot).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        file.set_len(total_bytes as u64)?;
        let store = PagedStore {
            config,
            state: Mutex::new(PagerState {
                file,
                cache: HashMap::new(),
                tick: 0,
                merkle: MerkleAccumulator::new(),
                record_count: 0,
                hits: 0,
                misses: 0,
            }),
        };
        store.initialize_empty()?;
        Ok(store)
    }

    /// Marks every slot empty (writes the full file once, sequentially, so
    /// slots that straddle page boundaries are laid out correctly).
    fn initialize_empty(&self) -> std::io::Result<()> {
        let slot = self.config.record_size + SLOT_HDR;
        let mut st = self.state.lock();
        st.file.seek(SeekFrom::Start(0))?;
        let mut slot_buf = vec![0u8; slot];
        slot_buf[..2].copy_from_slice(&EMPTY_LEN.to_le_bytes());
        let mut writer = std::io::BufWriter::new(&mut st.file);
        for _ in 0..self.config.capacity {
            writer.write_all(&slot_buf)?;
        }
        writer.flush()?;
        drop(writer);
        st.file.sync_all()?;
        Ok(())
    }

    fn slot_bytes(&self) -> usize {
        self.config.record_size + SLOT_HDR
    }

    fn slot_offset(&self, key: u64) -> u64 {
        key * self.slot_bytes() as u64
    }

    /// Loads the page containing `byte_off` into cache, evicting LRU pages.
    fn page_for(&self, st: &mut PagerState, byte_off: u64) -> std::io::Result<u64> {
        let page_id = byte_off / PAGE_SIZE as u64;
        st.tick += 1;
        let tick = st.tick;
        if let Some(p) = st.cache.get_mut(&page_id) {
            p.last_used = tick;
            st.hits += 1;
            return Ok(page_id);
        }
        st.misses += 1;
        // Evict if full.
        if st.cache.len() >= self.config.cache_pages {
            let victim = st
                .cache
                .iter()
                .min_by_key(|(_, p)| p.last_used)
                .map(|(id, _)| *id)
                .expect("cache non-empty");
            let page = st.cache.remove(&victim).expect("victim exists");
            if page.dirty {
                st.file.seek(SeekFrom::Start(victim * PAGE_SIZE as u64))?;
                st.file.write_all(&page.data)?;
            }
        }
        let mut data = vec![0u8; PAGE_SIZE];
        st.file.seek(SeekFrom::Start(page_id * PAGE_SIZE as u64))?;
        st.file.read_exact(&mut data)?;
        st.cache.insert(
            page_id,
            Page {
                data,
                dirty: false,
                last_used: tick,
            },
        );
        Ok(page_id)
    }

    /// Reads `len` bytes at `byte_off`, possibly spanning pages.
    fn read_at(&self, st: &mut PagerState, byte_off: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let mut off = byte_off;
        let mut remaining = len;
        while remaining > 0 {
            let page_id = self.page_for(st, off)?;
            let in_page = (off % PAGE_SIZE as u64) as usize;
            let take = remaining.min(PAGE_SIZE - in_page);
            let page = st.cache.get(&page_id).expect("just loaded");
            out.extend_from_slice(&page.data[in_page..in_page + take]);
            off += take as u64;
            remaining -= take;
        }
        Ok(out)
    }

    /// Writes `data` at `byte_off` through the cache, write-through to disk.
    fn write_at(&self, st: &mut PagerState, byte_off: u64, data: &[u8]) -> std::io::Result<()> {
        let mut off = byte_off;
        let mut written = 0;
        while written < data.len() {
            let page_id = self.page_for(st, off)?;
            let in_page = (off % PAGE_SIZE as u64) as usize;
            let take = (data.len() - written).min(PAGE_SIZE - in_page);
            let page = st.cache.get_mut(&page_id).expect("just loaded");
            page.data[in_page..in_page + take].copy_from_slice(&data[written..written + take]);
            page.dirty = true;
            off += take as u64;
            written += take;
        }
        // Write-through: push the bytes to the file now (the page stays
        // cached for reads).
        st.file.seek(SeekFrom::Start(byte_off))?;
        st.file.write_all(data)?;
        if self.config.fsync_on_write {
            st.file.sync_data()?;
        }
        Ok(())
    }

    /// Cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.hits, st.misses)
    }
}

impl PagedStore {
    /// Shared put body: `new_hash` is the caller's precomputed
    /// `record_hash(key, value)`, so the deferred-commit path does not
    /// re-hash values it already hashed in the execute workers. The Merkle
    /// accumulator is keyed, so overwrites replace the bucket entry
    /// directly — the old slot is read for record accounting and to hand
    /// the displaced value back, not re-hashed.
    fn put_hashed(&self, key: u64, value: &[u8], new_hash: [u8; 32]) -> Option<Vec<u8>> {
        assert!(
            key < self.config.capacity,
            "key {key} beyond store capacity"
        );
        assert!(
            value.len() <= self.config.record_size,
            "value of {} bytes exceeds record size {}",
            value.len(),
            self.config.record_size
        );
        let mut st = self.state.lock();
        let off = self.slot_offset(key);
        let raw = self
            .read_at(&mut st, off, SLOT_HDR + self.config.record_size)
            .expect("paged read failed");
        let old_len = u16::from_le_bytes([raw[0], raw[1]]);
        let displaced = if old_len == EMPTY_LEN {
            st.record_count += 1;
            None
        } else {
            Some(raw[SLOT_HDR..SLOT_HDR + old_len as usize].to_vec())
        };
        st.merkle.update(key, new_hash);
        // Write slot: length header + payload.
        let mut buf = Vec::with_capacity(SLOT_HDR + value.len());
        buf.extend_from_slice(&(value.len() as u16).to_le_bytes());
        buf.extend_from_slice(value);
        self.write_at(&mut st, off, &buf)
            .expect("paged write failed");
        displaced
    }
}

impl StateStore for PagedStore {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        assert!(
            key < self.config.capacity,
            "key {key} beyond store capacity"
        );
        let mut st = self.state.lock();
        let off = self.slot_offset(key);
        let raw = self
            .read_at(&mut st, off, SLOT_HDR + self.config.record_size)
            .expect("paged read failed");
        let len = u16::from_le_bytes([raw[0], raw[1]]);
        if len == EMPTY_LEN {
            return None;
        }
        Some(raw[SLOT_HDR..SLOT_HDR + len as usize].to_vec())
    }

    fn put(&self, key: u64, value: &[u8]) {
        self.put_hashed(key, value, record_hash(key, value));
    }

    fn apply(&self, writes: &[WriteRecord]) -> Vec<PreImage> {
        writes
            .iter()
            .map(|w| (w.key, self.put_hashed(w.key, &w.value, w.hash)))
            .collect()
    }

    fn len(&self) -> usize {
        self.state.lock().record_count
    }

    fn state_digest(&self) -> Digest {
        self.state.lock().merkle.root()
    }

    fn remove(&self, key: u64) -> bool {
        assert!(
            key < self.config.capacity,
            "key {key} beyond store capacity"
        );
        let mut st = self.state.lock();
        let off = self.slot_offset(key);
        let raw = self
            .read_at(&mut st, off, SLOT_HDR)
            .expect("paged read failed");
        let old_len = u16::from_le_bytes([raw[0], raw[1]]);
        if old_len == EMPTY_LEN {
            return false;
        }
        st.merkle.remove(key);
        st.record_count -= 1;
        self.write_at(&mut st, off, &EMPTY_LEN.to_le_bytes())
            .expect("paged write failed");
        true
    }

    fn export_records(&self) -> Vec<(u64, Vec<u8>)> {
        let mut st = self.state.lock();
        let mut out = Vec::with_capacity(st.record_count);
        for key in 0..self.config.capacity {
            let off = self.slot_offset(key);
            let raw = self
                .read_at(&mut st, off, SLOT_HDR + self.config.record_size)
                .expect("paged read failed");
            let len = u16::from_le_bytes([raw[0], raw[1]]);
            if len != EMPTY_LEN {
                out.push((key, raw[SLOT_HDR..SLOT_HDR + len as usize].to_vec()));
            }
        }
        out
    }

    fn install_records(&self, records: &[(u64, Vec<u8>)]) {
        self.initialize_empty().expect("paged re-init failed");
        {
            let mut st = self.state.lock();
            st.cache.clear();
            st.merkle.clear();
            st.record_count = 0;
        }
        for (key, value) in records {
            self.put(*key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn temp_store(config: PagedStoreConfig) -> (PagedStore, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!(
            "rdb-pagedb-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let store = PagedStore::create(&path, config).unwrap();
        (store, path)
    }

    fn small_config() -> PagedStoreConfig {
        PagedStoreConfig {
            record_size: 32,
            capacity: 1000,
            cache_pages: 4,
            fsync_on_write: false,
        }
    }

    #[test]
    fn get_put_round_trip() {
        let (s, path) = temp_store(small_config());
        assert!(s.get(5).is_none());
        s.put(5, b"hello");
        assert_eq!(s.get(5).as_deref(), Some(&b"hello"[..]));
        s.put(5, b"world!");
        assert_eq!(s.get(5).as_deref(), Some(&b"world!"[..]));
        assert_eq!(s.len(), 1);
        drop(s);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn eviction_preserves_data() {
        // 4-page cache, write far more pages than fit.
        let (s, path) = temp_store(small_config());
        for key in 0..1000u64 {
            s.put(key, &key.to_le_bytes());
        }
        for key in (0..1000u64).step_by(97) {
            assert_eq!(
                s.get(key).as_deref(),
                Some(&key.to_le_bytes()[..]),
                "key {key}"
            );
        }
        let (hits, misses) = s.cache_stats();
        assert!(misses > 0, "a 4-page cache must miss");
        assert!(hits > 0);
        drop(s);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn digest_matches_memstore_semantics() {
        let (s, path) = temp_store(small_config());
        let m = MemStore::new();
        for key in [3u64, 7, 500, 999, 7] {
            let v = key.to_be_bytes();
            s.put(key, &v);
            m.put(key, &v);
        }
        assert_eq!(s.state_digest(), m.state_digest());
        assert_eq!(s.len(), m.len());
        drop(s);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn apply_uses_precomputed_hashes_and_matches_puts() {
        let (applied, path_a) = temp_store(small_config());
        applied.apply(&[
            WriteRecord::new(3, b"one".to_vec()),
            WriteRecord::new(9, b"two".to_vec()),
            WriteRecord::new(3, b"uno".to_vec()),
        ]);
        let (direct, path_b) = temp_store(small_config());
        direct.put(3, b"one");
        direct.put(9, b"two");
        direct.put(3, b"uno");
        assert_eq!(applied.state_digest(), direct.state_digest());
        assert_eq!(applied.get(3).as_deref(), Some(&b"uno"[..]));
        assert_eq!(applied.len(), 2);
        drop(applied);
        drop(direct);
        let _ = std::fs::remove_file(path_a);
        let _ = std::fs::remove_file(path_b);
    }

    #[test]
    #[should_panic(expected = "beyond store capacity")]
    fn out_of_range_key_panics() {
        let (s, _path) = temp_store(small_config());
        s.put(1000, b"x");
    }

    #[test]
    #[should_panic(expected = "exceeds record size")]
    fn oversized_value_panics() {
        let (s, _path) = temp_store(small_config());
        s.put(1, &[0u8; 33]);
    }

    #[test]
    fn records_spanning_page_boundaries() {
        // slot = 34 bytes: slots straddle 4096-byte page edges regularly.
        let (s, path) = temp_store(small_config());
        // Keys around page boundary: page 0 holds ~120 slots.
        for key in 115..125u64 {
            s.put(key, &[key as u8; 32]);
        }
        for key in 115..125u64 {
            assert_eq!(s.get(key).as_deref(), Some(&[key as u8; 32][..]));
        }
        drop(s);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn remove_restores_pre_put_digest() {
        let (s, path) = temp_store(small_config());
        s.put(1, b"base");
        let before = s.state_digest();
        s.put(42, b"transient");
        assert_ne!(s.state_digest(), before);
        assert!(s.remove(42));
        assert_eq!(s.state_digest(), before);
        assert_eq!(s.len(), 1);
        assert!(s.get(42).is_none());
        assert!(!s.remove(42), "second removal finds an empty slot");
        drop(s);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn export_install_round_trips_content_and_digest() {
        let (src, path_a) = temp_store(small_config());
        for key in [999u64, 3, 118, 120] {
            src.put(key, &key.to_le_bytes());
        }
        let records = src.export_records();
        assert_eq!(records.len(), 4);
        assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "key-sorted");

        let (dst, path_b) = temp_store(small_config());
        dst.put(7, b"stale state to be wiped");
        dst.install_records(&records);
        assert_eq!(dst.state_digest(), src.state_digest());
        assert_eq!(dst.len(), src.len());
        assert!(dst.get(7).is_none());
        assert_eq!(dst.get(118).as_deref(), Some(&118u64.to_le_bytes()[..]));

        // A MemStore installed from the same records agrees too.
        let m = MemStore::new();
        m.install_records(&records);
        assert_eq!(m.state_digest(), src.state_digest());
        drop(src);
        drop(dst);
        let _ = std::fs::remove_file(path_a);
        let _ = std::fs::remove_file(path_b);
    }

    #[test]
    fn empty_after_create() {
        let (s, path) = temp_store(small_config());
        for key in (0..1000).step_by(111) {
            assert!(s.get(key).is_none());
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.state_digest(), Digest::ZERO);
        drop(s);
        let _ = std::fs::remove_file(path);
    }
}
