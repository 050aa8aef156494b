//! Transaction-system integration: atomicity, durability, and conflict
//! ordering across the chain under crashes.

use rambda_des::SimRng;
use rambda_txn::{Chain, TxnWrite};
use rambda_workloads::{KeyDist, TxnSpec};

fn value(tag: u64) -> Vec<u8> {
    tag.to_le_bytes().to_vec()
}

#[test]
fn multi_write_transactions_are_atomic_across_recovery() {
    let mut chain = Chain::new(3);
    for i in 0..200u64 {
        // Each transaction writes the same tag to two keys.
        chain.execute(
            &[],
            vec![TxnWrite { key: 2 * i, value: value(i) }, TxnWrite { key: 2 * i + 1, value: value(i) }],
        );
    }
    for r in 0..3 {
        chain.replica_mut(r).crash();
        chain.replica_mut(r).recover();
    }
    chain.check_consistency().unwrap();
    // Atomicity: both halves of every transaction are present and agree.
    for i in 0..200u64 {
        let a = chain.replica(1).get(2 * i).expect("first write lost");
        let b = chain.replica(2).get(2 * i + 1).expect("second write lost");
        assert_eq!(a, b, "transaction {i} torn");
    }
}

#[test]
fn reads_reflect_the_latest_committed_write() {
    let mut chain = Chain::new(2);
    chain.execute(&[], vec![TxnWrite { key: 9, value: value(1) }]);
    chain.execute(&[], vec![TxnWrite { key: 9, value: value(2) }]);
    let out = chain.execute(&[9], vec![]);
    assert_eq!(out.reads[0].as_deref().unwrap(), &value(2)[..]);
}

#[test]
fn conflicting_transactions_queue_in_arrival_order() {
    let mut chain = Chain::new(2);
    chain.execute(&[], vec![TxnWrite { key: 5, value: value(0) }]);
    // With the functional chain executing serially, conflicts_waited counts
    // what the timed model would have queued behind.
    let out = chain.execute(&[5], vec![TxnWrite { key: 6, value: value(1) }]);
    assert_eq!(out.conflicts_waited, 0, "no overlap in serial execution");
    assert!(chain.concurrency_control().busy_keys() == 0, "all locks released");
}

#[test]
fn random_workload_keeps_replicas_identical() {
    let mut chain = Chain::new(4);
    let dist = KeyDist::zipfian(500, 0.9);
    let mut rng = SimRng::seed(17);
    let spec = TxnSpec::read_write(32);
    for i in 0..1_000u64 {
        let keys = spec.sample_keys(&dist, &mut rng);
        let (reads, writes) = keys.split_at(spec.reads);
        let writes = writes.iter().map(|&key| TxnWrite { key, value: value(i) }).collect();
        chain.execute(reads, writes);
        if i % 250 == 0 {
            chain.check_consistency().unwrap();
        }
    }
    chain.check_consistency().unwrap();
    // Every replica answers every key identically.
    for key in 0..500u64 {
        let head = chain.replica(0).get(key).map(<[u8]>::to_vec);
        for r in 1..4 {
            assert_eq!(
                chain.replica(r).get(key).map(<[u8]>::to_vec),
                head,
                "key {key} diverges at replica {r}"
            );
        }
    }
}

#[test]
fn unpersisted_tail_never_resurrects() {
    let mut chain = Chain::new(1);
    chain.execute(&[], vec![TxnWrite { key: 1, value: value(1) }]);
    // Tamper: append a record but do NOT persist it.
    let idx = {
        let store = chain.replica_mut(0);
        store.apply(&rambda_txn::WalRecord { txn_id: 999, writes: vec![(2, value(2))] })
    };
    assert!(idx > 0);
    let store = chain.replica_mut(0);
    store.crash();
    store.recover();
    assert!(store.get(2).is_none(), "unpersisted write must not survive");
    assert!(store.get(1).is_some(), "durable write must survive");
}
