//! Cluster node-kill scenarios: the multi-node half of `cargo xtask
//! crashtest`.
//!
//! Each seed drives a 2-node **durable** simulated cluster through the
//! scatter-gather router, recording every acked write per node (the
//! cluster's acked history), then runs node-kill scenarios:
//!
//! * **kill-mid-write** — the owner dies partway through the write
//!   stream; unacked writes to the dead node fail loudly (`NodeDown`,
//!   never a silent drop), the survivor keeps acking, and after a restart
//!   the dead node recovers to exactly the oracle replay of its acked
//!   prefix (floor: its durable watermark at kill time);
//! * **restart-all** — every node dies after quiesce and rejoins from its
//!   data directory; each recovered state must equal the oracle at the
//!   node's recovered sequence number, and the folded [`ClusterSeq`] of a
//!   post-restart query must account for every acked write;
//! * **promote-replica** — a replica bootstrapped from shipped snapshots
//!   and caught up over `tail` is persisted as a real data directory
//!   after the owner dies; opening that directory must recover the full
//!   acked history of the dead node (no acknowledged write below the
//!   replica's seq is lost) and take writes as the new owner;
//! * **ship-litter** — promotion into a directory polluted with stray
//!   `*.snap.tmp` debris (the footprint of a crash mid-snapshot-ship)
//!   must sweep the litter and recover cleanly;
//! * **crash-mid-promotion** — a first promotion attempt dies partway:
//!   only a prefix of the shard images was published and one image is a
//!   torn `*.tmp` stage; the retried `persist_to` must sweep the stage,
//!   re-ship every shard, and recover to exactly the oracle.
//!
//! The promotion scenarios end with
//! [`ssj_io::fswitness::assert_dir_settled`]: xtask runs under
//! `debug_assertions`, so the runtime fs-order witness tracks every
//! create/fsync/rename the promotion performed and the assertion pins
//! that no rename was left without its directory fsync.
//!
//! Divergences report a `--replay <seed>` command like the single-node
//! scenarios.

use ssj_cluster::{ClusterSeq, HashRing, Replica, Router, RouterScratch, SimCluster};
use ssj_serve::{ServerConfig, ShardedIndex, SyncMode};
use std::fs;
use std::path::{Path, PathBuf};

use super::{Divergence, Rng};

/// One acked logical operation on one node, in that node's write order.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    /// Node-local global id (what the node's own WAL records).
    Remove(u64),
}

/// Everything a scenario learns from driving the seeded workload.
struct Drive {
    router: Router<SimCluster>,
    /// Per-node acked ops, in each node's write order.
    logs: Vec<Vec<Op>>,
    /// Per-node durable watermark from the last ack before the kill (or
    /// quiesce): writes below it must survive any restart.
    durable: Vec<u64>,
    /// Every set acked by an insert (for post-scenario queries).
    sets: Vec<Vec<u32>>,
    /// The memory-only node config (per-node `data_dir` is added by the
    /// sim; the oracle replays on this).
    base_cfg: ServerConfig,
}

const NODES: usize = 2;

fn base_cfg(seed: u64, sync: SyncMode) -> ServerConfig {
    ServerConfig {
        gamma: 0.8,
        shards: 1 + (seed % 3) as usize,
        initial_max_size: 16,
        seed: seed ^ 0xc1a5,
        sync,
        snapshot_every: 0,
        ..ServerConfig::default()
    }
}

/// Drives the seeded workload. `kill_at` stops node `kill_node` after
/// that many acked writes landed on it; subsequent writes owned by the
/// dead node must fail loudly and are excluded from the acked history.
fn drive(seed: u64, scratch: &Path, kill_at: Option<(usize, usize)>) -> Result<Drive, String> {
    let mut rng = Rng::new(seed ^ 0x0c10_57e4);
    let sync = if seed.is_multiple_of(2) {
        SyncMode::Every
    } else {
        SyncMode::Never
    };
    let cfg = base_cfg(seed, sync);
    let dirs: Vec<PathBuf> = (0..NODES).map(|n| scratch.join(format!("n{n}"))).collect();
    let sim = SimCluster::start_durable(&cfg, &dirs).map_err(|e| format!("start: {e}"))?;
    let ring = HashRing::new(NODES as u32, HashRing::DEFAULT_VNODES, cfg.seed);
    let mut router = Router::new(sim, ring, 0);
    let mut scratch_bufs = RouterScratch::default();

    let mut logs: Vec<Vec<Op>> = vec![Vec::new(); NODES];
    let mut durable = vec![0u64; NODES];
    let mut sets = Vec::new();
    let mut issued: Vec<u64> = Vec::new(); // live cluster ids
    let mut killed = false;
    let n_ops = 25 + rng.below(35);
    for _ in 0..n_ops {
        if let Some((node, at)) = kill_at {
            if !killed && logs[node].len() >= at {
                router.transport_mut().kill(node);
                killed = true;
            }
        }
        let remove = !issued.is_empty() && rng.below(10) < 3;
        if remove {
            let pick = rng.below(issued.len() as u64) as usize;
            let id = issued[pick];
            match router.route_remove(id, &mut scratch_bufs) {
                Ok(ack) => {
                    logs[ack.node].push(Op::Remove(id / NODES as u64));
                    if let Some(d) = ack.durable_seq {
                        durable[ack.node] = d;
                    }
                    issued.swap_remove(pick);
                }
                Err(e) if killed => {
                    // The dead node refusing a write is the contract, not
                    // a divergence — the op was never acked.
                    let want_node = (id % NODES as u64) as usize;
                    if !matches!(e, ssj_cluster::RouterError::NodeDown(n) if n == want_node) {
                        return Err(format!("remove failed oddly with a node down: {e}"));
                    }
                }
                Err(e) => return Err(format!("remove failed: {e}")),
            }
        } else {
            let len = 1 + rng.below(8) as usize;
            let mut set: Vec<u32> = (0..len).map(|_| rng.below(50) as u32).collect();
            set.sort_unstable();
            set.dedup();
            match router.route_insert(&set, &mut scratch_bufs) {
                Ok(ack) => {
                    logs[ack.node].push(Op::Insert(set.clone()));
                    if let Some(d) = ack.durable_seq {
                        durable[ack.node] = d;
                    }
                    issued.push(ack.id);
                    sets.push(set);
                }
                Err(ssj_cluster::RouterError::NodeDown(_)) if killed => {}
                Err(e) => return Err(format!("insert failed: {e}")),
            }
        }
    }
    Ok(Drive {
        router,
        logs,
        durable,
        sets,
        base_cfg: cfg,
    })
}

/// Replays `log[..upto]` on a fresh memory-only index.
fn oracle_state(
    cfg: &ServerConfig,
    log: &[Op],
    upto: u64,
) -> Result<(Vec<ssj_store::ShardState>, u64), String> {
    if upto > log.len() as u64 {
        return Err(format!(
            "recovered seq {upto} exceeds the {} acked writes",
            log.len()
        ));
    }
    let oracle = ShardedIndex::new(cfg).map_err(|e| format!("oracle build: {e}"))?;
    for op in &log[..upto as usize] {
        match op {
            Op::Insert(set) => {
                let _ = oracle.insert(set.clone());
            }
            Op::Remove(id) => {
                let _ = oracle.remove(*id);
            }
        }
    }
    Ok(oracle.dump())
}

/// Demands that node `node`'s live state equals the oracle replay of its
/// acked log at the node's own sequence number, with `min_seq` as the
/// durability floor.
fn check_node(d: &Drive, node: usize, min_seq: u64) -> Result<(), String> {
    let server = d
        .router
        .transport()
        .server(node)
        .ok_or_else(|| format!("node {node} not running"))?;
    let (got_states, got_seq) = server.index().dump();
    if got_seq < min_seq {
        return Err(format!(
            "node {node} recovered only to seq {got_seq}, durable floor is {min_seq}"
        ));
    }
    let (want_states, want_seq) = oracle_state(&d.base_cfg, &d.logs[node], got_seq)?;
    if got_seq != want_seq {
        return Err(format!(
            "node {node}: oracle seq {want_seq} != recovered {got_seq}"
        ));
    }
    if got_states != want_states {
        return Err(format!(
            "node {node} diverged from its acked history at seq {got_seq}"
        ));
    }
    Ok(())
}

/// Post-scenario serviceability: a routed write acks and is queryable.
fn check_serviceable(d: &mut Drive) -> Result<(), String> {
    let mut scratch = RouterScratch::default();
    let probe = vec![101, 102, 103];
    let ack = d
        .router
        .route_insert(&probe, &mut scratch)
        .map_err(|e| format!("post-scenario insert failed: {e}"))?;
    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(NODES);
    d.router
        .route_query(&probe, &mut scratch, &mut out, &mut seen)
        .map_err(|e| format!("post-scenario query failed: {e}"))?;
    if !out.contains(&ack.id) {
        return Err("post-scenario insert not visible to scatter-gather query".into());
    }
    Ok(())
}

/// The folded ClusterSeq of one quiesced query must account for every
/// acked write on every node.
fn check_cluster_seq(d: &mut Drive) -> Result<ClusterSeq, String> {
    let mut scratch = RouterScratch::default();
    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(NODES);
    d.router
        .route_query(&[1, 2, 3], &mut scratch, &mut out, &mut seen)
        .map_err(|e| format!("quiesce query failed: {e}"))?;
    for node in 0..NODES {
        let acked = d.logs[node].len() as u64;
        if seen.components()[node] != acked {
            return Err(format!(
                "ClusterSeq component {node} is {}, node acked {acked} write(s)",
                seen.components()[node]
            ));
        }
    }
    Ok(seen)
}

type Scenario = Result<(), String>;

/// Owner dies mid-stream; unacked writes fail loudly; restart recovers
/// the acked prefix.
fn scenario_kill_mid_write(seed: u64, scratch: &Path, rng: &mut Rng) -> Scenario {
    let node = rng.below(NODES as u64) as usize;
    let at = 3 + rng.below(10) as usize;
    let mut d = drive(seed, scratch, Some((node, at)))?;
    d.router
        .transport_mut()
        .restart(node)
        .map_err(|e| format!("restart: {e}"))?;
    check_node(&d, node, d.durable[node])
        .map_err(|e| format!("killed at {at} acked write(s): {e}"))?;
    check_serviceable(&mut d)
}

/// Every node restarts after quiesce; recovered states and the folded
/// ClusterSeq must match the acked history exactly.
fn scenario_restart_all(seed: u64, scratch: &Path) -> Scenario {
    let mut d = drive(seed, scratch, None)?;
    check_cluster_seq(&mut d)?;
    // Answers to every acked set before the kill...
    let mut scratch_bufs = RouterScratch::default();
    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(NODES);
    let sets = std::mem::take(&mut d.sets);
    let mut before = Vec::with_capacity(sets.len());
    for set in &sets {
        d.router
            .route_query(set, &mut scratch_bufs, &mut out, &mut seen)
            .map_err(|e| format!("pre-kill query failed: {e}"))?;
        before.push(out.clone());
    }
    for node in 0..NODES {
        d.router.transport_mut().kill(node);
    }
    for node in 0..NODES {
        d.router
            .transport_mut()
            .restart(node)
            .map_err(|e| format!("restart {node}: {e}"))?;
    }
    for node in 0..NODES {
        check_node(&d, node, d.durable[node]).map_err(|e| format!("after restart-all: {e}"))?;
    }
    // ...must be byte-identical after every node rejoined.
    for (set, want) in sets.iter().zip(&before) {
        d.router
            .route_query(set, &mut scratch_bufs, &mut out, &mut seen)
            .map_err(|e| format!("post-restart query failed: {e}"))?;
        if &out != want {
            return Err(format!("restart-all changed the answer for {set:?}"));
        }
    }
    // The post-restart folded watermark still accounts for every ack.
    check_cluster_seq(&mut d)?;
    check_serviceable(&mut d)
}

/// Replica promotion after the owner dies: the persisted directory must
/// hold the full acked history of the dead node.
fn scenario_promote_replica(seed: u64, scratch: &Path, litter: bool) -> Scenario {
    let mut d = drive(seed, scratch, None)?;
    let node = 0;
    let node_cfg = d.router.transport_mut().node_config(node).clone();
    let mut replica = Replica::bootstrap(d.router.transport_mut(), node, &node_cfg)
        .map_err(|e| format!("bootstrap: {e}"))?;
    replica
        .catch_up(d.router.transport_mut())
        .map_err(|e| format!("catch-up: {e}"))?;
    let acked = d.logs[node].len() as u64;
    if replica.seq() != acked {
        return Err(format!(
            "caught-up replica is at seq {}, owner acked {acked} write(s)",
            replica.seq()
        ));
    }
    d.router.transport_mut().kill(node);

    let promote_dir = scratch.join("promoted");
    fs::create_dir_all(&promote_dir).map_err(|e| format!("mkdir: {e}"))?;
    if litter {
        // A crash mid-snapshot-ship leaves half-written tmp images; they
        // must be swept, never decoded.
        fs::write(
            promote_dir.join("shard-0.snap.tmp"),
            b"half a shipped image",
        )
        .map_err(|e| format!("write litter: {e}"))?;
    }
    replica
        .persist_to(&promote_dir)
        .map_err(|e| format!("persist_to: {e}"))?;
    ssj_io::fswitness::assert_dir_settled(&promote_dir);
    check_promoted(&d, node, acked, &node_cfg, &promote_dir)
}

/// A first promotion attempt crashes mid-ship: only a prefix of the shard
/// images was published, and one image sits as a torn `*.tmp` stage (the
/// exact on-disk footprint of `ssj_io::fs::publish_durable` dying between create
/// and rename). The retried promotion must sweep the stage, re-ship every
/// shard at the replica's watermark, and recover to exactly the oracle.
fn scenario_crash_mid_promotion(seed: u64, scratch: &Path) -> Scenario {
    let mut d = drive(seed, scratch, None)?;
    let node = 0;
    let node_cfg = d.router.transport_mut().node_config(node).clone();
    let mut replica = Replica::bootstrap(d.router.transport_mut(), node, &node_cfg)
        .map_err(|e| format!("bootstrap: {e}"))?;
    replica
        .catch_up(d.router.transport_mut())
        .map_err(|e| format!("catch-up: {e}"))?;
    let acked = d.logs[node].len() as u64;
    d.router.transport_mut().kill(node);

    let promote_dir = scratch.join("promoted");
    fs::create_dir_all(&promote_dir).map_err(|e| format!("mkdir: {e}"))?;

    // Replay the crashed first attempt by hand: publish a strict prefix
    // of the shard images the same way `persist_to` does…
    let (states, seq) = replica.index().dump();
    let n = states.len();
    for (i, state) in states.iter().take(n / 2).enumerate() {
        let bytes = state
            .to_image(i, n, seq)
            .map_err(|e| format!("encode shard {i}: {e}"))?;
        ssj_store::persist_shipped_snapshot(&promote_dir, i, n, &bytes)
            .map_err(|e| format!("ship shard {i}: {e}"))?;
    }
    // …then die mid-stage on the next one: the publisher crashed between
    // create and rename leaves `shard-<k>.snap.tmp`.
    fs::write(
        promote_dir.join(format!("shard-{}.snap.tmp", n / 2)),
        b"torn",
    )
    .map_err(|e| format!("write torn stage: {e}"))?;

    // The retried promotion must start from a clean staging area and
    // publish the full consistent batch.
    replica
        .persist_to(&promote_dir)
        .map_err(|e| format!("retried persist_to: {e}"))?;
    ssj_io::fswitness::assert_dir_settled(&promote_dir);
    check_promoted(&d, node, acked, &node_cfg, &promote_dir)
}

/// Shared tail of the promotion scenarios: the promoted directory must
/// recover to exactly the oracle replay of the dead node's acked history,
/// hold no `*.tmp` debris, and take writes as the new owner.
fn check_promoted(
    d: &Drive,
    node: usize,
    acked: u64,
    node_cfg: &ServerConfig,
    promote_dir: &Path,
) -> Scenario {
    let promoted_cfg = ServerConfig {
        data_dir: Some(promote_dir.to_path_buf()),
        ..node_cfg.clone()
    };
    let promoted = ShardedIndex::open(&promoted_cfg).map_err(|e| format!("open promoted: {e}"))?;
    let (got_states, got_seq) = promoted.dump();
    if got_seq < acked {
        return Err(format!(
            "promotion lost acked writes: recovered seq {got_seq} < acked {acked}"
        ));
    }
    let (want_states, want_seq) = oracle_state(&d.base_cfg, &d.logs[node], acked)?;
    if (got_states, got_seq) != (want_states, want_seq) {
        return Err(format!(
            "promoted state diverged from the acked history at seq {want_seq}"
        ));
    }
    // The swept directory must hold no tmp debris.
    let entries = fs::read_dir(promote_dir).map_err(|e| format!("read_dir: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            return Err(format!("promotion left tmp debris: {name}"));
        }
    }
    // The promoted node takes writes as the new owner.
    match promoted.insert_d(vec![7, 8, 9]) {
        ssj_serve::WriteResult::Done((id, _), _) => {
            let (ids, _, _) = promoted.query(vec![7, 8, 9]);
            if !ids.contains(&id) {
                return Err("post-promotion insert not visible".into());
            }
        }
        ssj_serve::WriteResult::StoreFailed(e) => {
            return Err(format!("post-promotion insert failed: {e}"));
        }
    }
    Ok(())
}

/// Runs every cluster scenario for one seed, appending divergences.
pub fn run_seed(seed: u64, scratch: &Path, verbose: bool, divergences: &mut Vec<Divergence>) {
    let mut rng = Rng::new(seed ^ 0x6e0d_e517);
    type ScenarioFn = Box<dyn FnMut(u64, &Path, &mut Rng) -> Scenario>;
    let scenarios: [(&'static str, ScenarioFn); 5] = [
        ("kill-mid-write", Box::new(scenario_kill_mid_write)),
        (
            "restart-all",
            Box::new(|s, p, _| scenario_restart_all(s, p)),
        ),
        (
            "promote-replica",
            Box::new(|s, p, _| scenario_promote_replica(s, p, false)),
        ),
        (
            "ship-litter",
            Box::new(|s, p, _| scenario_promote_replica(s, p, true)),
        ),
        (
            "crash-mid-promotion",
            Box::new(|s, p, _| scenario_crash_mid_promotion(s, p)),
        ),
    ];
    for (name, mut scenario) in scenarios {
        let dir = scratch.join(name);
        let _ = fs::remove_dir_all(&dir);
        match scenario(seed, &dir, &mut rng) {
            Ok(()) => {
                if verbose {
                    println!("  cluster/{name:<15} ok");
                }
            }
            Err(detail) => {
                println!("DIVERGENCE seed={seed} scenario=cluster/{name}: {detail}");
                println!("  replay: cargo xtask crashtest --replay {seed}");
                divergences.push(Divergence {
                    seed,
                    scenario: name,
                    detail,
                });
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
