//! Property-based tests: chain replication invariants under arbitrary
//! transaction mixes and crash points.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rambda_txn::{Chain, TxnWrite, WalRecord};

#[derive(Debug, Clone)]
struct PropTxn {
    reads: Vec<u64>,
    writes: Vec<(u64, u8)>,
}

fn txn_strategy() -> impl Strategy<Value = PropTxn> {
    (proptest::collection::vec(0u64..50, 0..4), proptest::collection::vec((0u64..50, any::<u8>()), 0..4))
        .prop_map(|(reads, writes)| PropTxn { reads, writes })
}

proptest! {
    /// All replicas hold identical durable logs and identical values after
    /// any workload.
    #[test]
    fn replicas_never_diverge(txns in proptest::collection::vec(txn_strategy(), 1..100),
                              replicas in 1usize..5) {
        let mut chain = Chain::new(replicas);
        for t in txns {
            let writes = t.writes.iter().map(|&(k, b)| TxnWrite { key: k, value: vec![b; 4] }).collect();
            chain.execute(&t.reads, writes);
        }
        chain.check_consistency().unwrap();
        for key in 0..50u64 {
            let head = chain.replica(0).get(key).map(<[u8]>::to_vec);
            for r in 1..replicas {
                prop_assert_eq!(chain.replica(r).get(key).map(<[u8]>::to_vec), head.clone());
            }
        }
    }

    /// Crash + recovery at any point preserves exactly the committed state.
    #[test]
    fn recovery_is_exact(txns in proptest::collection::vec(txn_strategy(), 1..60),
                         crash_replica in 0usize..3) {
        let mut chain = Chain::new(3);
        for t in &txns {
            let writes = t.writes.iter().map(|&(k, b)| TxnWrite { key: k, value: vec![b; 4] }).collect();
            chain.execute(&t.reads, writes);
        }
        let before: Vec<_> = (0..50u64)
            .map(|k| chain.replica(crash_replica).get(k).map(<[u8]>::to_vec))
            .collect();
        chain.replica_mut(crash_replica).crash();
        chain.replica_mut(crash_replica).recover();
        for (k, want) in before.into_iter().enumerate() {
            prop_assert_eq!(chain.replica(crash_replica).get(k as u64).map(<[u8]>::to_vec), want);
        }
        chain.check_consistency().unwrap();
    }

    /// Reads always observe the latest committed write for their key.
    #[test]
    fn reads_are_monotone(values in proptest::collection::vec(any::<u8>(), 1..50)) {
        let mut chain = Chain::new(2);
        for (i, &b) in values.iter().enumerate() {
            chain.execute(&[], vec![TxnWrite { key: 7, value: vec![b; 2] }]);
            let out = chain.execute(&[7], vec![]);
            prop_assert_eq!(out.reads[0].as_deref().unwrap(), &[b, b][..], "iteration {}", i);
        }
    }

    /// The flat-log store behaves exactly like the reference model on any
    /// sequence of preloads, appends, persists, executes, crashes and
    /// recoveries, replica by replica.
    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..40),
                                     replicas in 1usize..4) {
        let mut chain = Chain::new(replicas);
        let mut models = vec![Model::default(); replicas];
        let mut next_txn = 0;
        for op in ops {
            match op {
                Op::Preload(items) => {
                    chain.preload(items.iter().map(|(k, v)| (*k, v.as_slice())));
                    for m in &mut models {
                        m.preload(next_txn, &items);
                    }
                    next_txn += items.len() as u64;
                }
                Op::Execute(reads, writes) => {
                    let txn = writes.iter().map(|(key, value)| TxnWrite { key: *key, value: value.clone() });
                    let out = chain.execute(&reads, txn.collect());
                    let want: Vec<_> = reads.iter().map(|k| models[0].memtable.get(k).cloned()).collect();
                    prop_assert_eq!(out.reads, want);
                    if !writes.is_empty() {
                        for m in &mut models {
                            let i = m.apply(WalRecord { txn_id: next_txn, writes: writes.clone() });
                            m.persist_through(i);
                        }
                    }
                    next_txn += 1;
                }
                Op::Apply(r, writes) => {
                    let record = WalRecord { txn_id: 1_000 + r as u64, writes };
                    let (r, m) = (r % replicas, &mut models[r % replicas]);
                    prop_assert_eq!(chain.replica_mut(r).apply(&record), m.apply(record));
                }
                Op::Persist(r, at) => {
                    let (r, m) = (r % replicas, &mut models[r % replicas]);
                    if !m.wal.is_empty() {
                        chain.replica_mut(r).persist_through(at % m.wal.len());
                        m.persist_through(at % m.wal.len());
                    }
                }
                Op::Crash(r) => {
                    chain.replica_mut(r % replicas).crash();
                    models[r % replicas].crash();
                }
                Op::Recover(r) => {
                    chain.replica_mut(r % replicas).recover();
                    models[r % replicas].recover();
                }
            }
            for (r, m) in models.iter().enumerate() {
                let s = chain.replica(r);
                for k in 0..KEYS {
                    prop_assert_eq!(s.get(k), m.memtable.get(&k).map(Vec::as_slice), "replica {} key {}", r, k);
                }
                prop_assert_eq!((s.len(), s.log_len(), s.durable_len()), (m.memtable.len(), m.wal.len(), m.durable));
                let log: Vec<WalRecord> = s.durable_log().map(|rec| rec.to_record()).collect();
                prop_assert_eq!(&log[..], &m.wal[..m.durable]);
            }
        }
    }
}

const KEYS: u64 = 12;

/// The reference model: the store's semantics as a `BTreeMap` memtable of
/// owned values over a `Vec` of owned log records.
#[derive(Debug, Clone, Default)]
struct Model {
    memtable: BTreeMap<u64, Vec<u8>>,
    wal: Vec<WalRecord>,
    durable: usize,
}

impl Model {
    fn apply(&mut self, record: WalRecord) -> usize {
        for (k, v) in &record.writes {
            self.memtable.insert(*k, v.clone());
        }
        self.wal.push(record);
        self.wal.len() - 1
    }

    fn persist_through(&mut self, index: usize) {
        self.durable = self.durable.max(index + 1);
    }

    fn preload(&mut self, first_txn_id: u64, items: &[(u64, Vec<u8>)]) {
        for (txn_id, item) in (first_txn_id..).zip(items) {
            self.apply(WalRecord { txn_id, writes: vec![item.clone()] });
        }
        self.durable = self.wal.len();
    }

    fn crash(&mut self) {
        self.memtable.clear();
        self.wal.truncate(self.durable);
    }

    fn recover(&mut self) {
        self.memtable.clear();
        for (k, v) in self.wal.iter().flat_map(|r| &r.writes) {
            self.memtable.insert(*k, v.clone());
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Preload(Vec<(u64, Vec<u8>)>),
    Execute(Vec<u64>, Vec<(u64, Vec<u8>)>),
    Apply(usize, Vec<(u64, Vec<u8>)>),
    Persist(usize, usize),
    Crash(usize),
    Recover(usize),
}

/// Writes over a small key space (so keys repeat), with values of 0-5
/// bytes (so empty values and length changes sit next to each other).
fn writes_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec((0..KEYS, any::<u8>(), 0usize..6), len)
        .prop_map(|ws| ws.into_iter().map(|(k, b, n)| (k, vec![b; n])).collect())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        writes_strategy(0..20).prop_map(Op::Preload),
        (proptest::collection::vec(0..KEYS, 0..4), writes_strategy(0..4))
            .prop_map(|(reads, writes)| Op::Execute(reads, writes)),
        (0usize..4, writes_strategy(0..4)).prop_map(|(r, writes)| Op::Apply(r, writes)),
        (0usize..4, 0usize..64).prop_map(|(r, at)| Op::Persist(r, at)),
        (0usize..4).prop_map(Op::Crash),
        (0usize..4).prop_map(Op::Recover),
    ]
}
