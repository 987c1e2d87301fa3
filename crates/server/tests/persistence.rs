//! Durability integration tests: acked writes survive restarts — graceful
//! and not — through the real wire protocol, and snapshots compact
//! tombstones away.

use ssj_serve::net::{client_call, serve_tcp};
use ssj_serve::{Request, Response, Server, ServerConfig, ShardedIndex, SyncMode};
use std::net::TcpListener;
use std::path::{Path, PathBuf};

/// A fresh per-test data directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssj_persist_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg(dir: &Path, sync: SyncMode) -> ServerConfig {
    ServerConfig {
        shards: 3,
        data_dir: Some(dir.to_path_buf()),
        sync,
        ..ServerConfig::default()
    }
}

fn json_u64(line: &str, key: &str) -> u64 {
    let v = ssj_io::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    let obj = v.as_object().unwrap_or_else(|e| panic!("{line}: {e}"));
    obj.get(key)
        .unwrap_or_else(|| panic!("{line}: missing {key}"))
        .as_u64()
        .unwrap_or_else(|e| panic!("{line}: {e}"))
}

fn json_ids(line: &str) -> Vec<u64> {
    let v = ssj_io::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    let obj = v.as_object().unwrap_or_else(|e| panic!("{line}: {e}"));
    obj["ids"]
        .as_array()
        .unwrap_or_else(|e| panic!("{line}: {e}"))
        .iter()
        .map(|x| x.as_u64().expect("id"))
        .collect()
}

/// Starts a TCP frontend for `cfg`; returns the address and the join
/// handle of the accept loop.
fn spawn_tcp(cfg: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::start(cfg).expect("server starts");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("addr").to_string();
    let h = std::thread::spawn(move || serve_tcp(server, listener));
    (addr, h)
}

#[test]
fn graceful_restart_preserves_acked_writes_over_the_wire() {
    let dir = test_dir("graceful");
    let (addr, srv) = spawn_tcp(durable_cfg(&dir, SyncMode::Every));

    let ins = client_call(&addr, r#"{"op":"insert","set":[1,2,3,4,5]}"#).expect("insert");
    assert!(ins.contains("\"ok\":true"), "{ins}");
    let kept = json_u64(&ins, "id");
    // With sync=every the ack itself certifies durability: the watermark
    // must already cover this write's seq.
    assert!(
        json_u64(&ins, "durable_seq") > json_u64(&ins, "seq"),
        "{ins}"
    );

    let ins2 = client_call(&addr, r#"{"op":"insert","set":[100,200,300]}"#).expect("insert2");
    let doomed = json_u64(&ins2, "id");
    let rm = client_call(&addr, &format!(r#"{{"op":"remove","id":{doomed}}}"#)).expect("remove");
    assert!(rm.contains("\"found\":true"), "{rm}");

    let bye = client_call(&addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
    srv.join().expect("thread").expect("serve_tcp io");

    // Same directory, fresh process-equivalent: recovery must reproduce
    // exactly the acked history — the kept set, and not the removed one.
    let (addr, srv) = spawn_tcp(durable_cfg(&dir, SyncMode::Every));
    let q = client_call(&addr, r#"{"op":"query","set":[1,2,3,4,5]}"#).expect("query");
    assert_eq!(json_ids(&q), vec![kept], "{q}");
    let q2 = client_call(&addr, r#"{"op":"query","set":[100,200,300]}"#).expect("query2");
    assert!(json_ids(&q2).is_empty(), "removed set resurfaced: {q2}");
    let bye = client_call(&addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
    srv.join().expect("thread").expect("serve_tcp io");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_without_drain_preserves_durably_acked_writes() {
    let dir = test_dir("kill");
    let server = Server::start(durable_cfg(&dir, SyncMode::Every)).expect("server starts");
    let handle = server.handle();

    // Run the real wire protocol over an in-memory session so the "kill"
    // below can bypass every graceful-shutdown path.
    let script = concat!(
        "{\"op\":\"insert\",\"set\":[10,20,30]}\n",
        "{\"op\":\"query_insert\",\"set\":[7,8,9]}\n",
        "{\"op\":\"insert\",\"set\":[42,43]}\n",
    );
    let mut out = Vec::new();
    ssj_serve::net::serve_connection(&handle, script.as_bytes(), &mut out).expect("session");
    let lines: Vec<String> = std::str::from_utf8(&out)
        .expect("utf8")
        .lines()
        .map(|l| l.to_string())
        .collect();
    assert_eq!(lines.len(), 3);
    let mut acked = Vec::new();
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "{line}");
        // sync=every: every acked write is durable at ack time.
        assert!(
            json_u64(line, "durable_seq") > json_u64(line, "seq"),
            "{line}"
        );
        acked.push(json_u64(line, "id"));
    }

    // Simulated crash: no drain, no flush, no WAL truncation — the
    // process just stops caring.
    std::mem::forget(server);

    let recovered =
        ShardedIndex::open(&durable_cfg(&dir, SyncMode::Every)).expect("recovery succeeds");
    for (elems, id) in [
        (vec![10u32, 20, 30], acked[0]),
        (vec![7, 8, 9], acked[1]),
        (vec![42, 43], acked[2]),
    ] {
        let (ids, _, _) = recovered.query(elems.clone());
        assert!(
            ids.contains(&id),
            "acked write {id} ({elems:?}) lost across kill+restart"
        );
    }
    assert_eq!(recovered.seq(), 3, "sequence counter must resume past acks");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_flush_covers_unsynced_acks() {
    let dir = test_dir("drain_flush");
    // sync=never: acks carry a durability watermark that lags arbitrarily.
    // Graceful drain must still fsync the tail, so a clean shutdown loses
    // nothing even under the weakest sync policy.
    let server = Server::start(durable_cfg(&dir, SyncMode::Never)).expect("server starts");
    let handle = server.handle();
    let id = match handle.call(Request::Insert {
        elems: vec![5, 6, 7, 8],
    }) {
        Response::Inserted { id, .. } => id,
        other => panic!("unexpected {other:?}"),
    };
    server.shutdown();

    let recovered =
        ShardedIndex::open(&durable_cfg(&dir, SyncMode::Never)).expect("recovery succeeds");
    let (ids, _, _) = recovered.query(vec![5, 6, 7, 8]);
    assert_eq!(ids, vec![id], "write acked before graceful shutdown lost");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_mid_burst_keeps_every_acked_write() {
    let dir = test_dir("drain_burst");
    // sync=never: only the drain's flush makes the acked tail durable, and
    // every call pauses 5 ms after admission, so the shutdown below lands
    // while calls are in flight.
    let cfg = ServerConfig {
        call_delay: std::time::Duration::from_millis(5),
        queue_capacity: 64,
        ..durable_cfg(&dir, SyncMode::Never)
    };
    let server = Server::start(cfg.clone()).expect("server starts");
    // Each caller waits here after its first ack; the shutdown follows
    // while the callers go on inserting.
    let first_acks = std::sync::Arc::new(std::sync::Barrier::new(5));
    let callers: Vec<_> = (0..4u32)
        .map(|t| {
            let (h, first_acks) = (server.handle(), std::sync::Arc::clone(&first_acks));
            std::thread::spawn(move || {
                let mut acked = Vec::new();
                for i in 0..1_000u32 {
                    let elems: Vec<u32> = (0..5).map(|k| t * 100_000 + i * 10 + k).collect();
                    match h.call(Request::Insert {
                        elems: elems.clone(),
                    }) {
                        Response::Inserted { id, .. } => acked.push((id, elems)),
                        Response::ShuttingDown => return (acked, true),
                        other => panic!("unexpected {other:?}"),
                    }
                    if i == 0 {
                        first_acks.wait();
                    }
                }
                (acked, false)
            })
        })
        .collect();
    first_acks.wait();
    server.shutdown();
    // Reopen at once, before the callers are joined: a write acked after
    // the drain's flush would be missing here.
    let (states, _) = ShardedIndex::open(&cfg).expect("recovery succeeds").dump();

    let mut acked = std::collections::BTreeMap::new();
    for caller in callers {
        let (writes, stopped) = caller.join().expect("caller thread");
        assert!(stopped, "the shutdown must land mid-burst");
        acked.extend(writes);
    }
    assert!(!acked.is_empty(), "no insert was acked before the shutdown");
    let n = states.len() as u64;
    let mut recovered = std::collections::BTreeMap::new();
    for (shard, state) in (0..n).zip(&states) {
        for (local, elems) in &state.live {
            recovered.insert(u64::from(*local) * n + shard, elems.clone());
        }
    }
    for (id, elems) in &acked {
        assert_eq!(
            recovered.get(id),
            Some(elems),
            "insert {id} was acked before shutdown returned but is not on disk"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshots_compact_tombstones_away() {
    let dir = test_dir("compact");
    let cfg = ServerConfig {
        snapshot_every: 0, // explicit snapshots only
        ..durable_cfg(&dir, SyncMode::Never)
    };
    let idx = ShardedIndex::open(&cfg).expect("open");
    let mut ids = Vec::new();
    for i in 0..200u32 {
        let base = i * 50;
        let (id, _) = idx.insert((base..base + 12).collect());
        ids.push(id);
    }
    idx.snapshot_now().expect("first snapshot");
    let full_size = snapshot_bytes(&dir);

    // Delete-heavy workload: tombstone 90% of the sets …
    for &id in &ids[..180] {
        let (found, _) = idx.remove(id);
        assert!(found);
    }
    idx.snapshot_now().expect("second snapshot");
    // … and the compacted snapshots must shrink accordingly: dead entries
    // are dropped, not carried forward as tombstone markers.
    let compacted_size = snapshot_bytes(&dir);
    assert!(
        compacted_size < full_size / 2,
        "snapshots did not compact: {full_size} bytes before, {compacted_size} after"
    );

    // The compacted state still recovers to exactly the live tail.
    drop(idx);
    let recovered = ShardedIndex::open(&cfg).expect("recovery succeeds");
    for &id in &ids[180..] {
        let (found, _) = recovered.remove(id);
        assert!(found, "live set {id} lost by compaction");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Total size of all `shard-*.snap` files in `dir`.
fn snapshot_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let entry = entry.expect("entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("shard-") && name.ends_with(".snap") {
            total += entry.metadata().expect("metadata").len();
        }
    }
    total
}

#[test]
fn concurrent_compacts_and_cadence_snapshots_recover_to_the_acked_state() {
    let dir = test_dir("concurrent_compact");
    // A cadence snapshot after every write, racing explicit compacts.
    let cfg = ServerConfig {
        snapshot_every: 1,
        ..durable_cfg(&dir, SyncMode::Never)
    };
    let server = Server::start(cfg.clone()).expect("server starts");
    // Oracle: every acked insert, minus every acked remove.
    let oracle = parking_lot::Mutex::new(std::collections::BTreeMap::new());
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let (h, oracle) = (server.handle(), &oracle);
            s.spawn(move || {
                for i in 0..40u32 {
                    let elems: Vec<u32> = (0..6).map(|k| t * 10_000 + i * 10 + k).collect();
                    let Response::Inserted { id, .. } = h.call(Request::Insert {
                        elems: elems.clone(),
                    }) else {
                        panic!("insert failed")
                    };
                    oracle.lock().insert(id, elems);
                    if i % 3 == 0 {
                        let removed = h.call(Request::Remove { id });
                        assert!(matches!(removed, Response::Removed { found: true, .. }));
                        oracle.lock().remove(&id);
                    }
                    let compacted = h.call(Request::Compact);
                    assert!(
                        matches!(compacted, Response::Compacted { .. }),
                        "{compacted:?}"
                    );
                }
            });
        }
    });
    server.shutdown();

    let (states, _) = ShardedIndex::open(&cfg).expect("recovery succeeds").dump();
    let n = states.len() as u64;
    let mut recovered = std::collections::BTreeMap::new();
    for (shard, state) in (0..n).zip(&states) {
        for (local, elems) in &state.live {
            recovered.insert(u64::from(*local) * n + shard, elems.clone());
        }
    }
    assert_eq!(recovered, oracle.into_inner());

    let _ = std::fs::remove_dir_all(&dir);
}
