//! Client transactions and batches.
//!
//! A transaction carries one or more key-value operations (the YCSB workload
//! in the paper is write-only, but reads are supported) plus an optional
//! opaque payload used by the message-size experiments (Figure 12). The
//! primary aggregates transactions into a [`Batch`], which is the unit of
//! consensus.

use crate::codec::{read_vec, write_vec, Sink, Wire, WireReader, WireWriter};
use crate::error::{CommonError, Result};
use crate::ids::{ClientId, TxnId};

/// A single key-value operation inside a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Read the value stored under `key`.
    Read {
        /// Record key in the YCSB table.
        key: u64,
    },
    /// Store `value` under `key`.
    Write {
        /// Record key in the YCSB table.
        key: u64,
        /// New record contents.
        value: Vec<u8>,
    },
}

impl Operation {
    /// The record key this operation touches.
    pub fn key(&self) -> u64 {
        match self {
            Operation::Read { key } | Operation::Write { key, .. } => *key,
        }
    }

    /// Whether this operation mutates state.
    pub fn is_write(&self) -> bool {
        matches!(self, Operation::Write { .. })
    }
}

impl Wire for Operation {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        match self {
            Operation::Read { key } => {
                w.put_u8(0);
                w.put_u64(*key);
            }
            Operation::Write { key, value } => {
                w.put_u8(1);
                w.put_u64(*key);
                w.put_var_bytes(value);
            }
        }
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(Operation::Read { key: r.get_u64()? }),
            1 => Ok(Operation::Write {
                key: r.get_u64()?,
                value: r.get_var_bytes()?.to_vec(),
            }),
            t => Err(CommonError::Codec(format!("invalid operation tag {t}"))),
        }
    }
}

/// A client transaction: the unit of work submitted for ordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Globally unique id `(client, counter)`.
    pub id: TxnId,
    /// Operations to apply, in order.
    pub ops: Vec<Operation>,
    /// Opaque padding simulating large application requests (Figure 12).
    pub payload: Vec<u8>,
}

impl Transaction {
    /// Creates a transaction for `client` with the given counter and ops.
    pub fn new(client: ClientId, counter: u64, ops: Vec<Operation>) -> Self {
        Transaction {
            id: TxnId::new(client, counter),
            ops,
            payload: Vec::new(),
        }
    }

    /// The declared read set: keys this transaction reads, sorted and
    /// deduplicated. Operations are declarative key accesses (not a
    /// Turing-complete program), so the declaration is derived from the
    /// operation list — it cannot disagree with what execution touches.
    pub fn read_set(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .ops
            .iter()
            .filter(|op| !op.is_write())
            .map(Operation::key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The declared write set: keys this transaction writes, sorted and
    /// deduplicated.
    pub fn write_set(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .ops
            .iter()
            .filter(|op| op.is_write())
            .map(Operation::key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The full declared access declaration used by the conflict scheduler.
    pub fn rw_set(&self) -> ReadWriteSet {
        ReadWriteSet {
            reads: self.read_set(),
            writes: self.write_set(),
        }
    }

    /// Attaches an opaque payload (builder-style).
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }
}

impl Wire for Transaction {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u64(self.id.client.0);
        w.put_u64(self.id.counter);
        write_vec(w, &self.ops);
        w.put_var_bytes(&self.payload);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        let client = ClientId(r.get_u64()?);
        let counter = r.get_u64()?;
        let ops = read_vec(r)?;
        let payload = r.get_var_bytes()?.to_vec();
        Ok(Transaction {
            id: TxnId::new(client, counter),
            ops,
            payload,
        })
    }
}

/// A transaction's declared key accesses, the input to read/write-set
/// conflict scheduling (the Fabric-style execution lesson): two
/// transactions may execute concurrently iff neither writes a key the
/// other reads or writes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReadWriteSet {
    /// Keys read, sorted and deduplicated.
    pub reads: Vec<u64>,
    /// Keys written, sorted and deduplicated.
    pub writes: Vec<u64>,
}

/// Whether two sorted key slices intersect (linear merge scan).
fn sorted_intersects(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl ReadWriteSet {
    /// Whether scheduling `self` and `other` concurrently could change the
    /// serial-order outcome: true on any write-write, write-read or
    /// read-write key overlap. Read-read overlap never conflicts.
    pub fn conflicts_with(&self, other: &ReadWriteSet) -> bool {
        sorted_intersects(&self.writes, &other.writes)
            || sorted_intersects(&self.writes, &other.reads)
            || sorted_intersects(&self.reads, &other.writes)
    }

    /// Whether the transaction touches no keys at all.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// An ordered collection of transactions: the unit of consensus.
///
/// The primary's batch-threads assemble batches; a *single* digest is
/// computed over the batch's canonical encoding (Section 4.3 of the paper:
/// hash the concatenated string representation once, not per-transaction).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch {
    /// Transactions in execution order.
    pub txns: Vec<Transaction>,
}

impl Batch {
    /// Creates a batch from transactions.
    pub fn new(txns: Vec<Transaction>) -> Self {
        Batch { txns }
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the batch holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Canonical bytes over which the batch digest is computed.
    ///
    /// This is the "single string representation of the whole batch" from
    /// Section 4.3: one hashing pass over the encoded batch rather than one
    /// per transaction. The buffer is preallocated to the exact encoded
    /// size, so large batches encode in a single allocation.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.encode()
    }
}

impl Wire for Batch {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        write_vec(w, &self.txns);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Batch { txns: read_vec(r)? })
    }
}

impl FromIterator<Transaction> for Batch {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        Batch {
            txns: iter.into_iter().collect(),
        }
    }
}

impl Extend<Transaction> for Batch {
    fn extend<I: IntoIterator<Item = Transaction>>(&mut self, iter: I) {
        self.txns.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_txn(counter: u64) -> Transaction {
        Transaction::new(
            ClientId(7),
            counter,
            vec![
                Operation::Write {
                    key: 42,
                    value: vec![1, 2, 3],
                },
                Operation::Read { key: 9 },
            ],
        )
        .with_payload(vec![0xaa; 16])
    }

    #[test]
    fn operation_round_trip() {
        for op in [
            Operation::Read { key: 5 },
            Operation::Write {
                key: 6,
                value: vec![9; 10],
            },
        ] {
            let bytes = op.encode();
            assert_eq!(Operation::decode(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn operation_bad_tag_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        assert!(Operation::decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn transaction_round_trip() {
        let t = sample_txn(3);
        let bytes = t.encode();
        assert_eq!(Transaction::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn batch_round_trip_and_counts() {
        let b: Batch = (0..5).map(sample_txn).collect();
        assert_eq!(b.len(), 5);
        assert_eq!(b.txns.iter().map(|t| t.ops.len()).sum::<usize>(), 10);
        assert!(!b.is_empty());
        let bytes = b.encode();
        assert_eq!(Batch::decode(&bytes).unwrap(), b);
    }

    #[test]
    fn canonical_bytes_are_deterministic() {
        let a: Batch = (0..3).map(sample_txn).collect();
        let b: Batch = (0..3).map(sample_txn).collect();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        // Order matters.
        let c: Batch = (0..3).rev().map(sample_txn).collect();
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn encoded_len_is_exact() {
        for op in [
            Operation::Read { key: 5 },
            Operation::Write {
                key: 6,
                value: vec![9; 10],
            },
        ] {
            assert_eq!(op.encoded_len(), op.encode().len());
        }
        let t = sample_txn(3);
        assert_eq!(t.encoded_len(), t.encode().len());
        let b: Batch = (0..5).map(sample_txn).collect();
        assert_eq!(b.encoded_len(), b.encode().len());
        assert_eq!(
            Batch::default().encoded_len(),
            Batch::default().encode().len()
        );
    }

    #[test]
    fn read_write_sets_sorted_and_deduped() {
        let t = Transaction::new(
            ClientId(1),
            0,
            vec![
                Operation::Write {
                    key: 9,
                    value: vec![1],
                },
                Operation::Read { key: 30 },
                Operation::Write {
                    key: 2,
                    value: vec![2],
                },
                Operation::Read { key: 30 },
                Operation::Write {
                    key: 9,
                    value: vec![3],
                },
            ],
        );
        assert_eq!(t.write_set(), vec![2, 9]);
        assert_eq!(t.read_set(), vec![30]);
        let rw = t.rw_set();
        assert_eq!(rw.reads, vec![30]);
        assert_eq!(rw.writes, vec![2, 9]);
        assert!(!rw.is_empty());
    }

    #[test]
    fn conflict_rules() {
        let w = |keys: &[u64]| ReadWriteSet {
            reads: vec![],
            writes: keys.to_vec(),
        };
        let r = |keys: &[u64]| ReadWriteSet {
            reads: keys.to_vec(),
            writes: vec![],
        };
        // Write-write, write-read and read-write overlaps all conflict.
        assert!(w(&[1, 5]).conflicts_with(&w(&[5, 9])));
        assert!(w(&[5]).conflicts_with(&r(&[5])));
        assert!(r(&[5]).conflicts_with(&w(&[5])));
        // Read-read overlap never conflicts; disjoint keys never conflict.
        assert!(!r(&[5]).conflicts_with(&r(&[5])));
        assert!(!w(&[1, 2]).conflicts_with(&w(&[3, 4])));
        assert!(ReadWriteSet::default().is_empty());
    }

    #[test]
    fn batch_extend() {
        let mut b = Batch::default();
        assert!(b.is_empty());
        b.extend(vec![sample_txn(1)]);
        assert_eq!(b.len(), 1);
    }
}
