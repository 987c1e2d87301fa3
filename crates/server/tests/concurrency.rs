//! Linearizability check: N client threads hammer one server with a random
//! operation mix, then every response is validated against a
//! single-threaded oracle replay.
//!
//! The protocol makes this exact (see `service.rs` module docs): every
//! write response carries its global sequence number, and every query
//! response carries `seen_seq` — the query saw precisely the writes
//! numbered below it. The oracle replays the writes in sequence order and
//! recomputes each query answer by brute force; any deviation (a lost
//! write, a torn read across shards, a resurrected tombstone) fails the
//! assertion.

use rand::prelude::*;
use ssj_serve::{Request, Response, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

const GAMMA: f64 = 0.5;

#[derive(Debug, Clone)]
enum Write {
    Insert { seq: u64, id: u64, elems: Vec<u32> },
    Remove { seq: u64, id: u64, found: bool },
}

impl Write {
    fn seq(&self) -> u64 {
        match self {
            Write::Insert { seq, .. } | Write::Remove { seq, .. } => *seq,
        }
    }
}

#[derive(Debug, Clone)]
struct QueryObs {
    seen_seq: u64,
    elems: Vec<u32>,
    ids: Vec<u64>,
    /// For query_insert: the id of the probe's own insert (never allowed
    /// in its own match list).
    self_id: Option<u64>,
}

fn canonical(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

fn random_set(rng: &mut StdRng) -> Vec<u32> {
    // Small universe + small sets → plenty of accidental near-duplicates.
    let len = rng.gen_range(3usize..8);
    (0..len).map(|_| rng.gen_range(0u32..60)).collect()
}

/// Replays all observed writes in sequence order, recomputing every query
/// answer and every remove outcome by brute force.
fn oracle_check(mut writes: Vec<Write>, mut queries: Vec<QueryObs>) {
    writes.sort_by_key(Write::seq);
    for (i, w) in writes.iter().enumerate() {
        assert_eq!(
            w.seq(),
            i as u64,
            "write sequence numbers must be dense and unique: {writes:?}"
        );
    }
    queries.sort_by_key(|q| q.seen_seq);

    let mut state: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut next_write = 0usize;
    let apply = |state: &mut BTreeMap<u64, Vec<u32>>, w: &Write| match w {
        Write::Insert { id, elems, .. } => {
            let prior = state.insert(*id, canonical(elems.clone()));
            assert!(prior.is_none(), "global id {id} issued twice");
        }
        Write::Remove { id, found, .. } => {
            let was_live = state.remove(id).is_some();
            assert_eq!(
                was_live, *found,
                "remove({id}) reported found={found} but oracle disagrees"
            );
        }
    };

    for q in &queries {
        while next_write < writes.len() && writes[next_write].seq() < q.seen_seq {
            apply(&mut state, &writes[next_write]);
            next_write += 1;
        }
        let probe = canonical(q.elems.clone());
        let mut expected: Vec<u64> = state
            .iter()
            .filter(|&(id, set)| {
                Some(*id) != q.self_id && ssj_core::similarity::jaccard(&probe, set) >= GAMMA
            })
            .map(|(&id, _)| id)
            .collect();
        expected.sort_unstable();
        assert_eq!(
            q.ids, expected,
            "query at seen_seq={} answered {:?}, oracle expected {:?} (probe {:?})",
            q.seen_seq, q.ids, expected, probe
        );
    }
    // Drain the remaining writes so every remove outcome is validated.
    for w in writes.iter().skip(next_write) {
        apply(&mut state, w);
    }
}

#[test]
fn concurrent_clients_match_sequential_oracle() {
    const CLIENTS: usize = 4;
    const OPS_PER_CLIENT: usize = 150;

    let server = Server::start(ServerConfig {
        gamma: GAMMA,
        shards: 3,
        queue_capacity: 1024,
        seed: 7,
        ..ServerConfig::default()
    })
    .expect("valid config");

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut clients = Vec::new();
    for t in 0..CLIENTS {
        let handle = server.handle();
        let barrier = Arc::clone(&barrier);
        clients.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + t as u64);
            let mut writes = Vec::new();
            let mut queries = Vec::new();
            let mut my_ids: Vec<u64> = Vec::new();
            barrier.wait();
            for _ in 0..OPS_PER_CLIENT {
                match rng.gen_range(0u32..100) {
                    0..=39 => {
                        let elems = random_set(&mut rng);
                        match handle.call(Request::Insert {
                            elems: elems.clone(),
                        }) {
                            Response::Inserted { id, seq, .. } => {
                                my_ids.push(id);
                                writes.push(Write::Insert { seq, id, elems });
                            }
                            other => panic!("insert answered {other:?}"),
                        }
                    }
                    40..=64 => {
                        let elems = random_set(&mut rng);
                        match handle.call(Request::Query {
                            elems: elems.clone(),
                        }) {
                            Response::Matches { ids, seen_seq, .. } => queries.push(QueryObs {
                                seen_seq,
                                elems,
                                ids,
                                self_id: None,
                            }),
                            other => panic!("query answered {other:?}"),
                        }
                    }
                    65..=84 => {
                        let elems = random_set(&mut rng);
                        match handle.call(Request::QueryInsert {
                            elems: elems.clone(),
                        }) {
                            Response::QueryInserted { ids, id, seq, .. } => {
                                my_ids.push(id);
                                queries.push(QueryObs {
                                    seen_seq: seq,
                                    elems: elems.clone(),
                                    ids,
                                    self_id: Some(id),
                                });
                                writes.push(Write::Insert { seq, id, elems });
                            }
                            other => panic!("query_insert answered {other:?}"),
                        }
                    }
                    _ => {
                        // Remove a previously inserted id (sometimes one
                        // already removed, sometimes a bogus id).
                        let id = if my_ids.is_empty() || rng.gen_bool(0.1) {
                            rng.gen_range(0u64..1000)
                        } else {
                            my_ids[rng.gen_range(0..my_ids.len())]
                        };
                        match handle.call(Request::Remove { id }) {
                            Response::Removed { found, seq, .. } => {
                                writes.push(Write::Remove { seq, id, found })
                            }
                            other => panic!("remove answered {other:?}"),
                        }
                    }
                }
            }
            (writes, queries)
        }));
    }

    let mut all_writes = Vec::new();
    let mut all_queries = Vec::new();
    for c in clients {
        let (w, q) = c.join().expect("client thread");
        all_writes.extend(w);
        all_queries.extend(q);
    }

    let stats = server.stats();
    server.shutdown();

    let inserts = all_writes
        .iter()
        .filter(|w| matches!(w, Write::Insert { .. }))
        .count() as u64;
    let found_removes = all_writes
        .iter()
        .filter(|w| matches!(w, Write::Remove { found: true, .. }))
        .count() as u64;
    assert_eq!(
        stats.live_sets.iter().sum::<u64>(),
        inserts - found_removes,
        "per-shard live counts must reconcile with the op log"
    );

    oracle_check(all_writes, all_queries);
}
