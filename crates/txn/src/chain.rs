//! Chain replication with Rambda-Tx's concurrency-control unit (Sec. IV-B).
//!
//! Machines form a linear chain. A transaction's writes enter at the head,
//! are appended to every replica's redo log in order, and commit when the
//! tail's ACK back-propagates to the head. The concurrency-control unit —
//! a small hash table indexed by key — admits at most one outstanding
//! transaction per key; conflicting transactions queue in arrival order.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::store::{PersistentStore, WalRecord};

/// One write of a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnWrite {
    /// Target key (addresses an offset in the NVM space).
    pub key: u64,
    /// New value.
    pub value: Vec<u8>,
}

/// Result of executing a transaction against the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnOutcome {
    /// The transaction id assigned by the head.
    pub txn_id: u64,
    /// Values observed by the read set (in request order).
    pub reads: Vec<Option<Vec<u8>>>,
    /// How many transactions were queued ahead on conflicting keys.
    pub conflicts_waited: usize,
}

/// The concurrency-control unit: per-key FIFO admission.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencyControl {
    queues: BTreeMap<u64, VecDeque<u64>>,
}

impl ConcurrencyControl {
    /// Creates an empty unit.
    pub fn new() -> Self {
        ConcurrencyControl::default()
    }

    /// Admits `txn` on `keys`; returns how many distinct transactions are
    /// queued ahead of it across its keys (0 = runs immediately).
    pub fn admit(&mut self, txn: u64, keys: impl IntoIterator<Item = u64>) -> usize {
        let mut ahead = Vec::new();
        for key in keys {
            let q = self.queues.entry(key).or_default();
            for &other in q.iter() {
                if other != txn && !ahead.contains(&other) {
                    ahead.push(other);
                }
            }
            if !q.contains(&txn) {
                q.push_back(txn);
            }
        }
        ahead.len()
    }

    /// Releases `txn`'s slots after commit.
    pub fn release(&mut self, txn: u64, keys: impl IntoIterator<Item = u64>) {
        for key in keys {
            if let Some(q) = self.queues.get_mut(&key) {
                q.retain(|&t| t != txn);
                if q.is_empty() {
                    self.queues.remove(&key);
                }
            }
        }
    }

    /// Keys currently under some transaction.
    pub fn busy_keys(&self) -> usize {
        self.queues.len()
    }
}

/// A replication chain of persistent stores.
#[derive(Debug, Clone)]
pub struct Chain {
    replicas: Vec<PersistentStore>,
    cc: ConcurrencyControl,
    next_txn: u64,
}

impl Chain {
    /// Creates a chain of `replicas` empty stores.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "a chain needs at least one replica");
        Chain { replicas: vec![PersistentStore::new(); replicas], cc: ConcurrencyControl::new(), next_txn: 0 }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the chain has no replicas (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Read access to a replica.
    pub fn replica(&self, i: usize) -> &PersistentStore {
        &self.replicas[i]
    }

    /// Mutable access to a replica (crash injection in tests).
    pub fn replica_mut(&mut self, i: usize) -> &mut PersistentStore {
        &mut self.replicas[i]
    }

    /// The concurrency-control unit.
    pub fn concurrency_control(&self) -> &ConcurrencyControl {
        &self.cc
    }

    /// Executes one transaction: reads are served at the head (chain
    /// replication keeps the head consistent), writes propagate down the
    /// chain and commit everywhere before the outcome returns.
    pub fn execute(&mut self, reads: &[u64], writes: Vec<TxnWrite>) -> TxnOutcome {
        let txn_id = self.next_txn;
        self.next_txn += 1;
        let keys: Vec<u64> = reads.iter().copied().chain(writes.iter().map(|w| w.key)).collect();
        let conflicts_waited = self.cc.admit(txn_id, keys.iter().copied());
        // (In the timed model, conflicting admission delays the start; the
        // functional chain executes serially, so admission always proceeds.)

        let read_values = reads.iter().map(|&k| self.replicas[0].get(k).map(|v| v.to_vec())).collect();

        if !writes.is_empty() {
            let record = WalRecord { txn_id, writes: writes.into_iter().map(|w| (w.key, w.value)).collect() };
            // Head -> tail: append + persist at every replica in order.
            for replica in &mut self.replicas {
                let idx = replica.apply(&record);
                replica.persist_through(idx);
            }
            // Tail ACK back-propagates; every replica then commits locally
            // (already durable here).
        }

        self.cc.release(txn_id, keys);
        TxnOutcome { txn_id, reads: read_values, conflicts_waited }
    }

    /// Bulk-loads `(key, value)` pairs, one committed single-write
    /// transaction each — observationally identical to calling
    /// [`execute`](Self::execute) with one write per pair (same transaction
    /// ids, same logs, same memtables), but skipping concurrency-control
    /// admission (a no-op when loading serially). A fresh chain builds the
    /// head replica once and clones it down the chain.
    pub fn preload<V: AsRef<[u8]>>(&mut self, items: impl IntoIterator<Item = (u64, V)>) {
        let (head, rest) = self.replicas.split_first_mut().expect("a chain has a head");
        let fresh = head.log_len() == 0 && rest.iter().all(|r| r.log_len() == 0);
        let from = head.log_len();
        let loaded = head.preload(self.next_txn, items);
        if fresh {
            for replica in rest {
                replica.clone_from(head);
            }
        } else {
            for replica in rest {
                replica.preload(
                    self.next_txn,
                    head.durable_log().skip(from).map(|r| r.writes().next().unwrap()),
                );
            }
        }
        self.next_txn += loaded;
    }

    /// Checks that all replicas agree on the durable log (the chain
    /// invariant).
    pub fn check_consistency(&self) -> Result<(), String> {
        let head = &self.replicas[0];
        for (i, r) in self.replicas.iter().enumerate() {
            if r.durable_len() != head.durable_len() {
                return Err(format!(
                    "replica {i} has {} durable records, head has {}",
                    r.durable_len(),
                    head.durable_len()
                ));
            }
            if r.durable_prefix() != head.durable_prefix() {
                return Err(format!("replica {i} log diverges from head"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(key: u64, byte: u8) -> TxnWrite {
        TxnWrite { key, value: vec![byte; 16] }
    }

    fn log(s: &PersistentStore) -> Vec<WalRecord> {
        s.durable_log().map(|r| r.to_record()).collect()
    }

    #[test]
    fn single_write_replicates_everywhere() {
        let mut chain = Chain::new(3);
        chain.execute(&[], vec![w(5, 0xAA)]);
        for i in 0..3 {
            assert_eq!(chain.replica(i).get(5).unwrap(), &[0xAA; 16]);
        }
        chain.check_consistency().unwrap();
    }

    #[test]
    fn reads_see_committed_writes() {
        let mut chain = Chain::new(2);
        chain.execute(&[], vec![w(1, 0x01)]);
        let out = chain.execute(&[1, 2], vec![]);
        assert_eq!(out.reads[0].as_deref().unwrap(), &[0x01; 16]);
        assert!(out.reads[1].is_none());
    }

    #[test]
    fn multi_write_txn_is_one_log_record() {
        let mut chain = Chain::new(2);
        chain.execute(&[], vec![w(1, 1), w(2, 2)]);
        assert_eq!(chain.replica(0).log_len(), 1);
        assert_eq!(chain.replica(1).log_len(), 1);
    }

    #[test]
    fn concurrency_control_counts_conflicts() {
        let mut cc = ConcurrencyControl::new();
        assert_eq!(cc.admit(1, [10, 11]), 0);
        assert_eq!(cc.admit(2, [11, 12]), 1); // behind txn 1 on key 11
        assert_eq!(cc.admit(3, [10, 11]), 2); // behind both
        cc.release(1, [10, 11]);
        assert_eq!(cc.busy_keys(), 3); // 10:[3] 11:[2,3] 12:[2]
        cc.release(2, [11, 12]);
        cc.release(3, [10, 11]);
        assert_eq!(cc.busy_keys(), 0);
    }

    #[test]
    fn txn_ids_are_monotonic() {
        let mut chain = Chain::new(1);
        let a = chain.execute(&[], vec![w(1, 1)]).txn_id;
        let b = chain.execute(&[], vec![w(1, 2)]).txn_id;
        assert!(b > a);
    }

    #[test]
    fn tail_crash_recovers_to_consistency() {
        let mut chain = Chain::new(2);
        for i in 0..50u64 {
            chain.execute(&[], vec![w(i, i as u8)]);
        }
        chain.replica_mut(1).crash();
        chain.replica_mut(1).recover();
        chain.check_consistency().unwrap();
        assert_eq!(chain.replica(1).get(17).unwrap(), &[17u8; 16]);
    }

    #[test]
    fn later_write_wins_after_recovery() {
        let mut chain = Chain::new(2);
        chain.execute(&[], vec![w(9, 1)]);
        chain.execute(&[], vec![w(9, 2)]);
        chain.replica_mut(0).crash();
        chain.replica_mut(0).recover();
        assert_eq!(chain.replica(0).get(9).unwrap(), &[2u8; 16]);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_chain_panics() {
        Chain::new(0);
    }

    /// `preload` must be indistinguishable from per-transaction `execute`,
    /// including duplicate keys (later write wins) and follow-on txn ids.
    #[test]
    fn preload_matches_execute_loop() {
        let items: Vec<(u64, Vec<u8>)> = (0..500u64).map(|k| (k % 120, vec![(k & 0xFF) as u8; 16])).collect();
        let mut bulk = Chain::new(2);
        bulk.preload(items.clone());
        let mut slow = Chain::new(2);
        for (key, value) in items {
            slow.execute(&[], vec![TxnWrite { key, value }]);
        }
        for i in 0..2 {
            assert_eq!(log(bulk.replica(i)), log(slow.replica(i)));
            assert_eq!(bulk.replica(i).len(), slow.replica(i).len());
            for k in 0..120 {
                assert_eq!(bulk.replica(i).get(k), slow.replica(i).get(k));
            }
        }
        bulk.check_consistency().unwrap();
        // Follow-on transactions get identical ids.
        let a = bulk.execute(&[], vec![w(1, 9)]).txn_id;
        let b = slow.execute(&[], vec![w(1, 9)]).txn_id;
        assert_eq!(a, b);
    }

    #[test]
    fn preload_after_writes_still_matches() {
        let mut bulk = Chain::new(2);
        bulk.execute(&[], vec![w(7, 0x07)]);
        bulk.preload((0..50u64).map(|k| (k, vec![k as u8; 8])));
        let mut slow = Chain::new(2);
        slow.execute(&[], vec![w(7, 0x07)]);
        for k in 0..50u64 {
            slow.execute(&[], vec![TxnWrite { key: k, value: vec![k as u8; 8] }]);
        }
        for i in 0..2 {
            assert_eq!(log(bulk.replica(i)), log(slow.replica(i)));
            assert_eq!(bulk.replica(i).get(7), slow.replica(i).get(7));
        }
        bulk.check_consistency().unwrap();
        let a = bulk.execute(&[], vec![w(1, 9)]).txn_id;
        let b = slow.execute(&[], vec![w(1, 9)]).txn_id;
        assert_eq!(a, b);
    }

    #[test]
    fn consistency_check_flags_an_extra_durable_record() {
        let mut chain = Chain::new(3);
        chain.execute(&[], vec![w(1, 1)]);
        let tail = chain.replica_mut(2);
        let idx = tail.apply(&WalRecord { txn_id: 1, writes: vec![(2, vec![2; 16])] });
        tail.persist_through(idx);
        let err = chain.check_consistency().unwrap_err();
        assert!(err.contains("replica 2 has 2 durable records"), "{err}");
    }

    #[test]
    fn consistency_check_flags_differing_bytes() {
        let mut chain = Chain::new(2);
        chain.execute(&[], vec![w(1, 1), w(2, 2)]);
        for (r, byte) in [(0, 3), (1, 4)] {
            let replica = chain.replica_mut(r);
            let idx = replica.apply(&WalRecord { txn_id: 1, writes: vec![(3, vec![byte; 16])] });
            replica.persist_through(idx);
        }
        let err = chain.check_consistency().unwrap_err();
        assert!(err.contains("replica 1 log diverges"), "{err}");
    }
}
