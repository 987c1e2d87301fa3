//! Remove/tombstone semantics of the incremental indexes: a removed id
//! must never resurface through any query path, re-inserting the same
//! elements after a remove yields a fresh live id, and a randomized
//! insert/remove interleaving agrees with a brute-force oracle.

use proptest::prelude::*;
use ssj_core::index::{JaccardIndex, SimilarityIndex};
use ssj_core::partenum::PartEnumJaccard;
use ssj_core::predicate::Predicate;
use ssj_core::set::{ElementId, SetId};
use ssj_core::similarity::jaccard;
use std::collections::BTreeMap;

const GAMMA: f64 = 0.5;

fn sim_index() -> SimilarityIndex<PartEnumJaccard> {
    SimilarityIndex::new(
        PartEnumJaccard::new(GAMMA, 32, 7).expect("valid scheme"),
        Predicate::Jaccard { gamma: GAMMA },
        None,
    )
}

fn canonical(mut v: Vec<ElementId>) -> Vec<ElementId> {
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn removed_ids_disappear_from_every_query_path() {
    let mut index = sim_index();
    let a = index.insert(vec![1, 2, 3, 4, 5]);
    let b = index.insert(vec![1, 2, 3, 4, 6]);
    let probe = [1u32, 2, 3, 4, 5];

    assert_eq!(index.query(&probe), vec![a, b]);

    index.remove(a);
    assert_eq!(index.query(&probe), vec![b]);
    assert_eq!(index.query_candidates(&probe), vec![b]);
    let (matches, _new_id) = index.query_insert(probe.to_vec());
    assert_eq!(matches, vec![b], "query_insert must not see removed sets");
    assert_eq!(index.len(), 2); // b + the query_insert set
}

#[test]
fn reinsert_after_remove_gets_a_fresh_live_id() {
    let mut index = sim_index();
    let a = index.insert(vec![10, 20, 30]);
    index.remove(a);
    let b = index.insert(vec![10, 20, 30]);
    assert_ne!(a, b, "ids are never recycled");
    assert_eq!(index.query(&[10, 20, 30]), vec![b]);
    assert_eq!(index.len(), 1);
    // Double-remove and unknown ids are inert through try_remove.
    assert!(!index.try_remove(a));
    assert!(!index.try_remove(9999));
    assert!(index.try_remove(b));
    assert!(index.query(&[10, 20, 30]).is_empty());
    assert!(index.is_empty());
}

#[test]
fn jaccard_index_tombstones_match_similarity_index() {
    // The stable-id wrapper must agree with the plain index on tombstone
    // behaviour, including across capacity rebuilds.
    let mut index = JaccardIndex::new(GAMMA, 4, 7).expect("valid gamma");
    let a = index.insert(vec![1, 2, 3]);
    // Oversized inserts force rebuilds; the tombstone must survive them.
    index.remove(a);
    let big: Vec<ElementId> = (0..40).collect();
    let b = index.insert(big.clone());
    assert_eq!(index.set(a), None, "tombstone lost across rebuild");
    assert!(index.query(&[1, 2, 3]).is_empty());
    assert_eq!(index.query(&big), vec![b]);
    assert!(!index.try_remove(a), "double remove must be inert");
}

/// One step of the randomized interleaving.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<ElementId>),
    /// Remove the id issued by the n-th preceding insert (wrapped), or a
    /// wildly out-of-range id when nothing was inserted yet.
    Remove(usize),
    Query(Vec<ElementId>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop::collection::vec(0u32..40, 1..8).prop_map(Op::Insert),
        2 => (0usize..20).prop_map(Op::Remove),
        2 => prop::collection::vec(0u32..40, 1..8).prop_map(Op::Query),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_inserts_and_removes_match_brute_force(
        ops in prop::collection::vec(op_strategy(), 1..60)
    ) {
        let mut index = JaccardIndex::new(GAMMA, 8, 11).expect("valid gamma");
        let mut oracle: BTreeMap<SetId, Vec<ElementId>> = BTreeMap::new();
        let mut issued: Vec<SetId> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(elems) => {
                    let id = index.insert(elems.clone());
                    prop_assert!(!oracle.contains_key(&id), "id {id} reissued");
                    oracle.insert(id, canonical(elems));
                    issued.push(id);
                }
                Op::Remove(n) => {
                    let id = if issued.is_empty() {
                        1_000_000
                    } else {
                        issued[n % issued.len()]
                    };
                    let was_live = oracle.remove(&id).is_some();
                    prop_assert_eq!(index.try_remove(id), was_live);
                }
                Op::Query(elems) => {
                    let probe = canonical(elems);
                    let got = index.query(&probe);
                    let mut want: Vec<SetId> = oracle
                        .iter()
                        .filter(|(_, set)| jaccard(&probe, set) >= GAMMA)
                        .map(|(&id, _)| id)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "probe {:?}", probe);
                }
            }
        }
        // Closing audit: every live set is retrievable, every removed one
        // is gone.
        for (&id, set) in &oracle {
            prop_assert_eq!(index.set(id), Some(set.as_slice()));
        }
        for &id in &issued {
            if !oracle.contains_key(&id) {
                prop_assert_eq!(index.set(id), None);
            }
        }
    }
}
