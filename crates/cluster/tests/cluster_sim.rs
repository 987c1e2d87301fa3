//! End-to-end tests of the simulated multi-node cluster: scatter-gather
//! correctness against a single-node oracle, ClusterSeq accounting,
//! owner routing, replica failover, durable restart, and promotion.

use ssj_cluster::{ClusterSeq, HashRing, Replica, Router, RouterError, RouterScratch, SimCluster};
use ssj_core::index::Placement;
use ssj_serve::{ServerConfig, ShardedIndex};
use std::collections::BTreeMap;

/// SplitMix64 — self-contained determinism, same shape as the xtask
/// harnesses use.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

fn test_cfg(seed: u64) -> ServerConfig {
    ServerConfig {
        gamma: 0.6,
        shards: 2,
        initial_max_size: 16,
        seed,
        ..ServerConfig::default()
    }
}

fn gen_set(rng: &mut Rng) -> Vec<u32> {
    let len = 1 + rng.below(8) as usize;
    let mut set: Vec<u32> = (0..len).map(|_| rng.below(40) as u32).collect();
    set.sort_unstable();
    set.dedup();
    set
}

fn router_over(nodes: usize, cfg: &ServerConfig) -> Router<SimCluster> {
    let sim = SimCluster::start_memory(nodes, cfg).expect("cluster start");
    let ring = HashRing::new(nodes as u32, 16, cfg.seed);
    Router::new(sim, ring, 0)
}

/// The tentpole claim: for every N, a cluster of N nodes answers exactly
/// the pairs one node answers — placement moves sets around, it never
/// changes the join result.
#[test]
fn cluster_query_results_match_single_node_oracle() {
    for nodes in [2usize, 3, 5] {
        let cfg = test_cfg(7);
        let oracle = ShardedIndex::new(&cfg).expect("oracle");
        let mut router = router_over(nodes, &cfg);
        let mut scratch = RouterScratch::default();
        let mut rng = Rng::new(99);

        // id → insertion index, on both sides.
        let mut cluster_ids = BTreeMap::new();
        let mut oracle_ids = BTreeMap::new();
        let mut sets = Vec::new();
        for i in 0..80u64 {
            let set = gen_set(&mut rng);
            let ack = router.route_insert(&set, &mut scratch).expect("insert");
            let (oid, _) = oracle.insert(set.clone());
            cluster_ids.insert(ack.id, i);
            oracle_ids.insert(oid, i);
            sets.push(set);
        }

        let mut out = Vec::new();
        let mut seen = ClusterSeq::new(nodes);
        for set in &sets {
            let _ = router
                .route_query(set, &mut scratch, &mut out, &mut seen)
                .expect("query");
            let got: Vec<u64> = out.iter().map(|id| cluster_ids[id]).collect();
            let (oids, _, _) = oracle.query(set.clone());
            let want: Vec<u64> = oids.iter().map(|id| oracle_ids[id]).collect();
            assert_eq!(got, want, "{nodes}-node cluster diverged on {set:?}");
        }
        router.transport_mut_shutdown();
    }
}

/// After all writes quiesce, the folded ClusterSeq must account for every
/// acknowledged write: the components sum to the number of inserts.
#[test]
fn cluster_seq_accounts_for_every_acked_write() {
    let nodes = 3;
    let cfg = test_cfg(11);
    let mut router = router_over(nodes, &cfg);
    let mut scratch = RouterScratch::default();
    let mut rng = Rng::new(5);
    let total = 60u64;
    for _ in 0..total {
        let set = gen_set(&mut rng);
        router.route_insert(&set, &mut scratch).expect("insert");
    }
    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(nodes);
    router
        .route_query(&[1, 2, 3], &mut scratch, &mut out, &mut seen)
        .expect("query");
    assert_eq!(seen.total(), total);
    assert_eq!(seen.components().len(), nodes);
    router.transport_mut_shutdown();
}

/// Writes land on the ring owner and the cluster id encodes that owner.
#[test]
fn write_acks_come_from_the_ring_owner() {
    let nodes = 4;
    let cfg = test_cfg(3);
    let mut router = router_over(nodes, &cfg);
    let mut scratch = RouterScratch::default();
    let mut rng = Rng::new(17);
    let mut owners_hit = vec![false; nodes];
    for _ in 0..64 {
        let mut set = gen_set(&mut rng);
        set.sort_unstable();
        set.dedup();
        let want_owner = router.ring().bucket_of(&set);
        let ack = router.route_insert(&set, &mut scratch).expect("insert");
        assert_eq!(ack.node, want_owner);
        let (node, local) = router.decode_cluster_id(ack.id);
        assert_eq!(node, want_owner);
        assert_eq!(router.cluster_id(local, node), ack.id);
        owners_hit[ack.node] = true;
    }
    assert!(
        owners_hit.iter().all(|&h| h),
        "64 random sets should touch all {nodes} nodes: {owners_hit:?}"
    );
    router.transport_mut_shutdown();
}

/// Removes route by the node embedded in the cluster id and take effect.
#[test]
fn remove_routes_by_cluster_id() {
    let nodes = 3;
    let cfg = test_cfg(23);
    let mut router = router_over(nodes, &cfg);
    let mut scratch = RouterScratch::default();
    let set = vec![4, 8, 15, 16, 23, 42];
    let ack = router.route_insert(&set, &mut scratch).expect("insert");

    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(nodes);
    router
        .route_query(&set, &mut scratch, &mut out, &mut seen)
        .expect("query");
    assert_eq!(out, vec![ack.id]);

    let removed = router.route_remove(ack.id, &mut scratch).expect("remove");
    assert!(removed.found);
    assert_eq!(removed.node, ack.node);
    router
        .route_query(&set, &mut scratch, &mut out, &mut seen)
        .expect("query");
    assert!(out.is_empty(), "removed set still matches: {out:?}");

    // Removing again is a found=false no-op, exactly like one node.
    let again = router.route_remove(ack.id, &mut scratch).expect("remove");
    assert!(!again.found);
    router.transport_mut_shutdown();
}

/// A partitioned owner with an attached replica keeps answering queries —
/// at the replica's watermark — and heals transparently.
#[test]
fn replica_serves_queries_while_owner_is_partitioned() {
    let nodes = 2;
    let cfg = test_cfg(31);
    let mut router = router_over(nodes, &cfg);
    let mut scratch = RouterScratch::default();
    let mut rng = Rng::new(77);
    let sets: Vec<Vec<u32>> = (0..40).map(|_| gen_set(&mut rng)).collect();
    for set in &sets {
        router.route_insert(set, &mut scratch).expect("insert");
    }

    // Live answers, to compare the failover answers against.
    let mut live = Vec::new();
    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(nodes);
    for set in &sets {
        router
            .route_query(set, &mut scratch, &mut out, &mut seen)
            .expect("query");
        live.push(out.clone());
    }
    let live_seen = seen.clone();

    // Replicate node 0 (bootstrap ships the snapshot batch, catch-up
    // tails the WAL — memory-only nodes ship their full state as one
    // batch), then cut node 0 away from the router.
    let replica = {
        let transport = router.transport_mut();
        Replica::bootstrap(transport, 0, &cfg).expect("bootstrap")
    };
    assert_eq!(replica.seq(), live_seen.components()[0]);
    router.attach_replica(replica);
    router.transport_mut().partition(0, true);

    for (set, want) in sets.iter().zip(&live) {
        let ack = router
            .route_query(set, &mut scratch, &mut out, &mut seen)
            .expect("failover query");
        assert_eq!(ack.replica_answers, 1);
        assert_eq!(&out, want, "failover answer diverged on {set:?}");
    }
    assert_eq!(seen, live_seen, "replica watermark must match the owner's");

    // Heal: the live node answers again, no replica involved.
    router.transport_mut().partition(0, false);
    let ack = router
        .route_query(&sets[0], &mut scratch, &mut out, &mut seen)
        .expect("healed query");
    assert_eq!(ack.replica_answers, 0);
    assert_eq!(&out, &live[0]);
    router.transport_mut_shutdown();
}

/// A replica tails the owner's WAL: writes acked after bootstrap become
/// visible after `catch_up`, and a gap-free application is enforced.
#[test]
fn replica_catches_up_over_the_tail_op() {
    let nodes = 2;
    // Durable node 0 so the WAL tail survives in its file.
    let tmp = std::env::temp_dir().join(format!("ssj-cluster-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let dirs = vec![tmp.join("n0"), tmp.join("n1")];
    let cfg = test_cfg(41);
    let sim = SimCluster::start_durable(&cfg, &dirs).expect("cluster start");
    let ring = HashRing::new(nodes as u32, 16, cfg.seed);
    let mut router = Router::new(sim, ring, 0);
    let mut scratch = RouterScratch::default();
    let mut rng = Rng::new(13);

    for _ in 0..20 {
        let set = gen_set(&mut rng);
        router.route_insert(&set, &mut scratch).expect("insert");
    }
    let node0_cfg = router.transport_mut().node_config(0).clone();
    let mut replica = {
        let transport = router.transport_mut();
        Replica::bootstrap(transport, 0, &node0_cfg).expect("bootstrap")
    };
    let boot_seq = replica.seq();

    // More writes after the bootstrap watermark...
    let mut probe = None;
    for _ in 0..20 {
        let set = gen_set(&mut rng);
        let ack = router.route_insert(&set, &mut scratch).expect("insert");
        if ack.node == 0 {
            probe = Some(set);
        }
    }
    let probe = probe.expect("some set should land on node 0");

    // ...are invisible to the replica until it tails the WAL.
    let mut ids = Vec::new();
    let after = {
        let transport = router.transport_mut();
        replica.catch_up(transport).expect("catch up")
    };
    assert!(after > boot_seq, "tail must advance the replica");
    let (seen_seq, _) = replica.query_local(&probe, &mut ids);
    assert_eq!(seen_seq, after);
    assert!(!ids.is_empty(), "tailed write invisible to the replica");
    router.transport_mut_shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A killed node without a replica fails the query loudly (a partial
/// scatter-gather would silently violate the snapshot contract).
#[test]
fn killed_node_without_replica_fails_loudly() {
    let nodes = 3;
    let cfg = test_cfg(53);
    let mut router = router_over(nodes, &cfg);
    let mut scratch = RouterScratch::default();
    router
        .route_insert(&[1, 2, 3], &mut scratch)
        .expect("insert");
    router.transport_mut().kill(1);
    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(nodes);
    let err = router
        .route_query(&[1, 2, 3], &mut scratch, &mut out, &mut seen)
        .expect_err("query must fail");
    assert_eq!(err, RouterError::NodeDown(1));
    router.transport_mut_shutdown();
}

/// Durable nodes rejoin after a kill by recovering from their data
/// directories; the cluster answers exactly as before the kill.
#[test]
fn durable_node_restart_recovers_and_rejoins() {
    let nodes = 2;
    let tmp = std::env::temp_dir().join(format!("ssj-cluster-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let dirs = vec![tmp.join("n0"), tmp.join("n1")];
    let cfg = test_cfg(61);
    let sim = SimCluster::start_durable(&cfg, &dirs).expect("cluster start");
    let ring = HashRing::new(nodes as u32, 16, cfg.seed);
    let mut router = Router::new(sim, ring, 0);
    let mut scratch = RouterScratch::default();
    let mut rng = Rng::new(3);
    let sets: Vec<Vec<u32>> = (0..30).map(|_| gen_set(&mut rng)).collect();
    for set in &sets {
        router.route_insert(set, &mut scratch).expect("insert");
    }
    let mut before = Vec::new();
    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(nodes);
    for set in &sets {
        router
            .route_query(set, &mut scratch, &mut out, &mut seen)
            .expect("query");
        before.push(out.clone());
    }

    router.transport_mut().kill(0);
    assert!(!router.transport_mut().is_reachable(0));
    router.transport_mut().restart(0).expect("restart");
    assert!(router.transport_mut().is_reachable(0));

    for (set, want) in sets.iter().zip(&before) {
        router
            .route_query(set, &mut scratch, &mut out, &mut seen)
            .expect("query after restart");
        assert_eq!(&out, want, "restart changed the answer for {set:?}");
    }
    router.transport_mut_shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Promotion: a replica persisted to a directory is a real data dir — a
/// fresh durable index opened on it serves the replica's exact state.
#[test]
fn promoted_replica_persists_a_recoverable_directory() {
    let nodes = 2;
    let cfg = test_cfg(71);
    let mut router = router_over(nodes, &cfg);
    let mut scratch = RouterScratch::default();
    let mut rng = Rng::new(29);
    for _ in 0..30 {
        let set = gen_set(&mut rng);
        router.route_insert(&set, &mut scratch).expect("insert");
    }
    let replica = {
        let transport = router.transport_mut();
        Replica::bootstrap(transport, 1, &cfg).expect("bootstrap")
    };
    let (want_states, want_seq) = replica.index().dump();

    let tmp = std::env::temp_dir().join(format!("ssj-cluster-promote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("mkdir");
    replica.persist_to(&tmp).expect("persist");

    let promoted_cfg = ServerConfig {
        data_dir: Some(tmp.clone()),
        ..cfg.clone()
    };
    let promoted = ShardedIndex::open(&promoted_cfg).expect("open promoted dir");
    let (got_states, got_seq) = promoted.dump();
    assert_eq!(got_seq, want_seq);
    assert_eq!(got_states, want_states);
    // The promoted node takes writes as the new owner.
    let (id, _) = promoted.insert(vec![9, 9, 9]);
    let (ids, _, _) = promoted.query(vec![9, 9, 9]);
    assert!(ids.contains(&id));
    router.transport_mut_shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Convenience: shut the sim down through the router (tests only).
trait ShutdownExt {
    fn transport_mut_shutdown(self);
}

impl ShutdownExt for Router<SimCluster> {
    fn transport_mut_shutdown(self) {
        // Dropping the router drops the SimCluster, whose nodes drain on
        // drop; the explicit helper keeps intent visible at call sites.
    }
}
