//! A log-structured persistent key-value store over (simulated) NVM.
//!
//! Stands in for RocksDB in the evaluation (Sec. VI-C): a volatile memtable
//! in front of a durable redo log. A write is durable once its log record is
//! in the NVM-backed log; crash recovery replays the durable prefix. Values
//! are addressed by key and stored with the offset-in-NVM discipline
//! HyperLoop uses.
//!
//! The log is flat: every logged value lives once in one byte arena, each
//! write is a `(key, offset)` entry into it, and each record is a
//! `(txn_id, first write)` entry. A write's value ends where the next
//! write's begins (or at the end of the arena), and a record's writes end
//! where the next record's begin. The memtable maps each key to the index
//! of its latest write, so reads return slices of the arena.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// One redo-log record in owned form: a whole transaction's writes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Transaction id (monotonic per chain).
    pub txn_id: u64,
    /// `(key, value)` writes, applied atomically.
    pub writes: Vec<(u64, Vec<u8>)>,
}

impl WalRecord {
    /// Serialized size: the paper's log format — one count byte plus
    /// `(data, len, offset)` tuples.
    pub fn log_bytes(&self) -> u64 {
        1 + self.writes.iter().map(|(_, v)| v.len() as u64 + 4 + 8).sum::<u64>()
    }
}

/// A record's entry in the flat log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    txn_id: u64,
    /// Index of the record's first write.
    first_write: usize,
}

/// A write's entry in the flat log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Write {
    key: u64,
    /// Byte offset of the value in the arena.
    offset: usize,
}

/// The persistent store: memtable + durable redo log.
#[derive(Debug, Clone, Default)]
pub struct PersistentStore {
    /// Every logged value, in log order.
    arena: Vec<u8>,
    writes: Vec<Write>,
    /// The simulated NVM contents: records up to `durable` survive a crash.
    records: Vec<Record>,
    durable: usize,
    /// Key -> index of its latest write in `writes`.
    memtable: BTreeMap<u64, usize>,
}

/// A borrowed view of one logged record.
#[derive(Clone, Copy)]
pub struct LogRecord<'a> {
    store: &'a PersistentStore,
    index: usize,
}

impl<'a> LogRecord<'a> {
    /// Transaction id.
    pub fn txn_id(&self) -> u64 {
        self.store.records[self.index].txn_id
    }

    /// The record's `(key, value)` writes, in order.
    pub fn writes(&self) -> impl ExactSizeIterator<Item = (u64, &'a [u8])> + 'a {
        let store = self.store;
        (store.record_start(self.index)..store.record_start(self.index + 1))
            .map(move |w| (store.writes[w].key, store.value(w)))
    }

    /// Copies the record out of the log.
    pub fn to_record(&self) -> WalRecord {
        WalRecord { txn_id: self.txn_id(), writes: self.writes().map(|(k, v)| (k, v.to_vec())).collect() }
    }
}

impl fmt::Debug for LogRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogRecord")
            .field("txn_id", &self.txn_id())
            .field("writes", &self.writes().collect::<Vec<_>>())
            .finish()
    }
}

impl PersistentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PersistentStore::default()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.memtable.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.memtable.is_empty()
    }

    /// Reads a key from the memtable.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.memtable.get(&key).map(|&w| self.value(w))
    }

    /// Appends a transaction's record to the redo log (not yet durable) and
    /// applies it to the memtable. Returns the record's log index.
    pub fn apply(&mut self, record: &WalRecord) -> usize {
        self.records.push(Record { txn_id: record.txn_id, first_write: self.writes.len() });
        for (key, value) in &record.writes {
            self.memtable.insert(*key, self.writes.len());
            self.push_write(*key, value);
        }
        self.records.len() - 1
    }

    /// Appends one single-write record per `(key, value)` item, with
    /// transaction ids counting up from `first_txn_id`, applies them to the
    /// memtable and marks the whole log durable — observationally identical
    /// to `apply` + `persist_through` per item, but bulk-building the
    /// memtable when it is empty. Returns the number of records appended.
    /// Used to pre-load benchmark worlds.
    pub fn preload<V: AsRef<[u8]>>(
        &mut self,
        first_txn_id: u64,
        items: impl IntoIterator<Item = (u64, V)>,
    ) -> u64 {
        let items = items.into_iter();
        let (start, reserve) = (self.writes.len(), items.size_hint().0);
        self.records.reserve(reserve);
        self.writes.reserve(reserve);
        for (txn_id, (key, value)) in (first_txn_id..).zip(items) {
            self.records.push(Record { txn_id, first_write: self.writes.len() });
            self.push_write(key, value.as_ref());
        }
        let latest = self.writes[start..].iter().zip(start..).map(|(w, i)| (w.key, i));
        if self.memtable.is_empty() {
            // Sorted bulk build; a stable sort keeps the later duplicate.
            self.memtable = latest.collect();
        } else {
            self.memtable.extend(latest);
        }
        self.durable = self.records.len();
        (self.writes.len() - start) as u64
    }

    /// Marks the log durable through `index` (the NVM write completed —
    /// ADR guarantees persistence once it reaches the DIMM's write buffer).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a log index (`index >= log_len()`).
    pub fn persist_through(&mut self, index: usize) {
        assert!(
            index < self.records.len(),
            "persist_through({index}) is past the end of a log of {} records",
            self.records.len()
        );
        self.durable = self.durable.max(index + 1);
    }

    /// Number of durable log records.
    pub fn durable_len(&self) -> usize {
        self.durable
    }

    /// Total log records (durable + volatile tail).
    pub fn log_len(&self) -> usize {
        self.records.len()
    }

    /// The durable log prefix, record by record.
    pub fn durable_log(&self) -> impl ExactSizeIterator<Item = LogRecord<'_>> {
        (0..self.durable).map(move |index| LogRecord { store: self, index })
    }

    /// The durable prefix of the flat log. Two stores hold the same durable
    /// log exactly when these are equal, since the arena holds nothing but
    /// logged values in log order.
    pub(crate) fn durable_prefix(&self) -> (&[Record], &[Write], &[u8]) {
        let writes = self.record_start(self.durable);
        let bytes = self.write_start(writes);
        (&self.records[..self.durable], &self.writes[..writes], &self.arena[..bytes])
    }

    /// Simulates a crash: the memtable and the volatile log tail are lost.
    pub fn crash(&mut self) {
        let writes = self.record_start(self.durable);
        self.arena.truncate(self.write_start(writes));
        self.writes.truncate(writes);
        self.records.truncate(self.durable);
        self.memtable.clear();
    }

    /// Recovers after a crash by replaying the log (after a crash, exactly
    /// its durable prefix).
    pub fn recover(&mut self) {
        self.memtable = self.writes.iter().zip(0..).map(|(w, i)| (w.key, i)).collect();
    }

    fn push_write(&mut self, key: u64, value: &[u8]) {
        self.writes.push(Write { key, offset: self.arena.len() });
        self.arena.extend_from_slice(value);
    }

    /// Index of record `r`'s first write (`writes.len()` past the end).
    fn record_start(&self, r: usize) -> usize {
        self.records.get(r).map_or(self.writes.len(), |rec| rec.first_write)
    }

    /// Arena offset of write `w`'s value (`arena.len()` past the end).
    fn write_start(&self, w: usize) -> usize {
        self.writes.get(w).map_or(self.arena.len(), |wr| wr.offset)
    }

    fn value(&self, w: usize) -> &[u8] {
        &self.arena[self.write_start(w)..self.write_start(w + 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, kvs: &[(u64, u8)]) -> WalRecord {
        WalRecord { txn_id: id, writes: kvs.iter().map(|&(k, b)| (k, vec![b; 8])).collect() }
    }

    fn log(s: &PersistentStore) -> Vec<WalRecord> {
        s.durable_log().map(|r| r.to_record()).collect()
    }

    #[test]
    fn apply_and_get() {
        let mut s = PersistentStore::new();
        s.apply(&rec(1, &[(10, 0xAA), (11, 0xBB)]));
        assert_eq!(s.get(10).unwrap(), &[0xAA; 8]);
        assert_eq!(s.get(11).unwrap(), &[0xBB; 8]);
        assert_eq!(s.len(), 2);
        assert!(s.get(99).is_none());
    }

    #[test]
    fn log_bytes_match_paper_format() {
        let r = rec(1, &[(1, 0), (2, 0)]);
        // 1 count byte + 2 x (8 bytes data + 4 len + 8 offset).
        assert_eq!(r.log_bytes(), 1 + 2 * 20);
    }

    #[test]
    fn crash_loses_volatile_tail_only() {
        let mut s = PersistentStore::new();
        let i0 = s.apply(&rec(1, &[(1, 0x01)]));
        s.persist_through(i0);
        s.apply(&rec(2, &[(2, 0x02)])); // never persisted
        s.crash();
        assert_eq!(s.log_len(), 1);
        assert!(s.get(1).is_none(), "memtable lost in the crash");
        s.recover();
        assert_eq!(s.get(1).unwrap(), &[0x01; 8]);
        assert!(s.get(2).is_none(), "unpersisted txn must not reappear");
        // The truncated tail leaves no bytes behind for the next append.
        let i1 = s.apply(&rec(3, &[(3, 0x03)]));
        s.persist_through(i1);
        assert_eq!(log(&s), vec![rec(1, &[(1, 0x01)]), rec(3, &[(3, 0x03)])]);
    }

    #[test]
    fn recovery_applies_log_in_order() {
        let mut s = PersistentStore::new();
        let a = s.apply(&rec(1, &[(7, 0x01)]));
        s.persist_through(a);
        let b = s.apply(&rec(2, &[(7, 0x02)])); // overwrites key 7
        s.persist_through(b);
        s.crash();
        s.recover();
        assert_eq!(s.get(7).unwrap(), &[0x02; 8], "later record must win");
    }

    #[test]
    fn persist_through_is_monotonic() {
        let mut s = PersistentStore::new();
        let a = s.apply(&rec(1, &[(1, 1)]));
        let b = s.apply(&rec(2, &[(2, 2)]));
        s.persist_through(b);
        s.persist_through(a); // regress attempt
        assert_eq!(s.durable_len(), 2);
        assert_eq!(s.durable_log().len(), 2);
    }

    #[test]
    #[should_panic(expected = "persist_through(1) is past the end of a log of 1 records")]
    fn persist_through_past_the_log_panics() {
        let mut s = PersistentStore::new();
        let a = s.apply(&rec(1, &[(1, 1)]));
        s.persist_through(a + 1);
    }

    #[test]
    fn empty_store_behaviour() {
        let mut s = PersistentStore::new();
        assert!(s.is_empty());
        s.crash();
        s.recover();
        assert!(s.is_empty());
        assert_eq!(s.durable_log().len(), 0);
    }

    #[test]
    fn records_keep_empty_and_variable_length_values() {
        let mut s = PersistentStore::new();
        let r = WalRecord { txn_id: 4, writes: vec![(1, vec![]), (2, vec![9; 3]), (3, vec![])] };
        let i = s.apply(&r);
        s.persist_through(i);
        assert_eq!(s.get(1).unwrap(), &[] as &[u8]);
        assert_eq!(s.get(2).unwrap(), &[9; 3]);
        assert_eq!(log(&s), vec![r]);
    }

    #[test]
    fn crash_after_preload_hides_keys_until_recover() {
        let mut s = PersistentStore::new();
        let n = s.preload(10, (0..1_000u64).map(|k| (k, [(k & 0xFF) as u8; 4])));
        assert_eq!((n, s.len(), s.durable_len()), (1_000, 1_000, 1_000));
        s.crash();
        assert_eq!(s.len(), 0);
        assert!((0..1_000).all(|k| s.get(k).is_none()));
        s.recover();
        assert_eq!(s.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(s.get(k).unwrap(), &[(k & 0xFF) as u8; 4]);
        }
        assert_eq!(s.durable_log().next().unwrap().txn_id(), 10);
    }
}
