//! Direct calls into each layer's public functions, made by a traced run
//! after its closed loop has stopped: one caller, no concurrent load, so a
//! number here is the layer's own cost and counts repeat exactly.
//!
//! Every probe loop records one span per call and stops after a fixed
//! number of calls or [`PROBE_BUDGET`], whichever comes first, so a slow
//! layer (a 44 ms wire round trip) yields fewer samples, not a longer run.

use super::data::{self, GAMMA, SERVE_SET_SIZE};
use super::host::ScratchDir;
use super::serving::{
    render_set_request, Client, HandleClient, RouterClient, WireClient, CLUSTER_NODES,
};
use super::stats::median_us;
use super::trace::Tracer;
use super::{Outcome, SCHEME_SEED};
use rand::prelude::*;
use ssj_cluster::{
    ClusterSeq, HashRing, Router, RouterScratch, SimCluster, TcpTransport, Transport,
};
use ssj_core::index::{JaccardIndex, QueryScratch};
use ssj_core::set::{ElementId, SetCollection};
use ssj_serve::net::client_call;
use ssj_serve::wire::{encode_response, parse_request};
use ssj_serve::{
    Handle, Request, Response, ServeScratch, Server, ServerConfig, ShardedIndex, SyncMode,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest one probe loop runs.
pub const PROBE_BUDGET: Duration = Duration::from_millis(1_200);

/// Calls `f(i)` under a span named `name` up to `calls` times or until the
/// budget is spent; returns the per-call nanoseconds.
fn timed(
    name: &'static str,
    calls: usize,
    tracer: &mut Tracer,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<u64>, String> {
    let begun = Instant::now();
    let mut ns = Vec::with_capacity(calls);
    for i in 0..calls {
        let start = Instant::now();
        tracer.span(name, i as u64, |_| f(i))?;
        ns.push(start.elapsed().as_nanos() as u64);
        if begun.elapsed() >= PROBE_BUDGET {
            break;
        }
    }
    Ok(ns)
}

fn mean(total: u64, n: usize) -> f64 {
    total as f64 / n.max(1) as f64
}

/// `server.service.*`: `Handle::call` from one caller, and — when the
/// index is reachable — `ShardedIndex::query_scratch` called directly; the
/// difference is the queue hop.
pub fn service(
    handle: &Handle,
    index: Option<&ShardedIndex>,
    probes: &[Vec<ElementId>],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut probed = 0u64;
    let mut call = timed("server.service.call", probes.len(), tracer, |i| {
        let elems = probes[i].clone();
        match handle.call(Request::Query { elems }) {
            Response::Matches { probed: p, .. } => {
                probed += p;
                Ok(())
            }
            other => Err(format!("probe query answered {other:?}")),
        }
    })?;
    out.set("server.service.cand_per_query", mean(probed, call.len()));
    let call_us = median_us(&mut call);
    out.set("server.service.call_us", call_us);
    if let Some(index) = index {
        let mut scratch = ServeScratch::default();
        let mut ids = Vec::new();
        let mut direct = timed("server.service.direct", probes.len(), tracer, |i| {
            index.query_scratch(&probes[i], &mut scratch, &mut ids);
            Ok(())
        })?;
        let direct_us = median_us(&mut direct);
        out.set("server.service.direct_us", direct_us);
        out.set("server.service.queue_hop_us", call_us - direct_us);
    }
    let stats = handle.stats();
    out.set("server.service.overloaded", stats.overloaded as f64);
    out.set("server.service.timeouts", stats.timeouts as f64);
    Ok(())
}

/// `core.index.*`: a single-threaded `JaccardIndex` with no server around
/// it, loaded with up to 20 000 of the served sets and probed with
/// perturbed copies of the sets it holds.
pub fn index(
    collection: &SetCollection,
    calls: usize,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut index =
        JaccardIndex::new(GAMMA, SERVE_SET_SIZE, SCHEME_SEED).expect("0.8 is a valid threshold");
    let load = collection.len().min(20_000);
    let mut insert = timed("core.index.insert", load, tracer, |i| {
        index.insert(collection.set(i as u32).to_vec());
        Ok(())
    })?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1de8);
    let probes: Vec<Vec<ElementId>> = (0..calls)
        .map(|_| {
            let source = collection.set(rng.gen_range(0..insert.len().max(1)) as u32);
            data::perturb(&mut rng, source)
        })
        .collect();
    let mut scratch = QueryScratch::default();
    let mut ids = Vec::new();
    let (mut probed, mut pruned) = (0u64, 0u64);
    let mut query = timed("core.index.query", probes.len(), tracer, |i| {
        probed += index.query_counted_scratch(&probes[i], &mut scratch, &mut ids) as u64;
        pruned += scratch.last_bitmap_pruned() as u64;
        Ok(())
    })?;
    out.set("core.index.cand_per_query", mean(probed, query.len()));
    out.set(
        "core.index.bitmap_pruned_frac",
        mean(pruned, probed as usize),
    );
    out.set("core.index.insert_us", median_us(&mut insert));
    out.set("core.index.query_us", median_us(&mut query));
    Ok(())
}

/// `server.wire.*`, `server.net.*` and `io.json.*`: the codec called
/// directly on the lines the workload sends, then round trips over a
/// persistent connection, over a fresh connection per call
/// (`client_call`), and for `{"op":"stats"}`, which does no index work.
pub fn wire(
    addr: &str,
    handle: &Handle,
    probes: &[Vec<ElementId>],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let lines: Vec<String> = probes
        .iter()
        .map(|p| {
            let mut line = String::new();
            render_set_request(&mut line, "query", p);
            line.trim_end().to_string()
        })
        .collect();
    let responses: Vec<Response> = probes
        .iter()
        .map(|p| handle.call(Request::Query { elems: p.clone() }))
        .collect();
    let mut parse = timed("server.wire.parse", lines.len(), tracer, |i| {
        parse_request(&lines[i]).map(|r| drop(std::hint::black_box(r)))
    })?;
    let mut encoded = Vec::with_capacity(responses.len());
    let mut encode = timed("server.wire.encode", responses.len(), tracer, |i| {
        encoded.push(encode_response(&responses[i]));
        Ok(())
    })?;
    out.set("server.wire.parse_us", median_us(&mut parse));
    out.set("server.wire.encode_us", median_us(&mut encode));
    out.set(
        "server.wire.req_bytes",
        mean(lines.iter().map(|l| l.len() as u64 + 1).sum(), lines.len()),
    );
    let resp_bytes: u64 = encoded.iter().map(|l| l.len() as u64 + 1).sum();
    out.set("server.wire.resp_bytes", mean(resp_bytes, encoded.len()));
    let json = timed("io.json.parse", encoded.len(), tracer, |i| {
        ssj_io::json::parse(&encoded[i]).map(|v| drop(std::hint::black_box(v)))
    })?;
    let json_bytes: u64 = encoded[..json.len()].iter().map(|l| l.len() as u64).sum();
    out.set(
        "io.json.parse_ns_per_byte",
        json.iter().sum::<u64>() as f64 / json_bytes.max(1) as f64,
    );

    let mut client = WireClient::connect(addr)?;
    let mut persistent = timed("server.net.persistent_rtt", lines.len(), tracer, |i| {
        client.raw(&lines[i]).map(drop)
    })?;
    let mut stats = timed("server.net.stats_rtt", lines.len(), tracer, |_| {
        client.raw("{\"op\":\"stats\"}").map(drop)
    })?;
    let mut oneshot = timed("server.net.oneshot_rtt", lines.len(), tracer, |i| {
        client_call(addr, &lines[i])
            .map(drop)
            .map_err(|e| format!("client_call: {e}"))
    })?;
    let persistent_us = median_us(&mut persistent);
    out.set("server.net.persistent_rtt_us", persistent_us);
    out.set("server.net.stats_rtt_us", median_us(&mut stats));
    out.set("server.net.oneshot_rtt_us", median_us(&mut oneshot));
    let call_us = out
        .metrics
        .get("server.service.call_us")
        .copied()
        .unwrap_or(0.0);
    out.set("server.net.overhead_us", persistent_us - call_us);
    Ok(())
}

/// Durable inserts through `Handle::call` on a fresh server under `sync`;
/// returns the median microseconds and the WAL bytes per write.
fn durable_writes(
    name: &'static str,
    base: &ServerConfig,
    dir: &ScratchDir,
    sync: SyncMode,
    calls: usize,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let data_dir = dir.0.join(name);
    let server = Server::start(ServerConfig {
        data_dir: Some(data_dir.clone()),
        sync,
        ..base.clone()
    })
    .map_err(|e| format!("probe server start: {e}"))?;
    let mut client = HandleClient(server.handle());
    let mut rng = StdRng::seed_from_u64(base.seed ^ 0x5708e);
    let wal_bytes = || {
        server.index().flush_store().ok();
        server.index().store().map_or(0, |s| s.durable_wal_bytes())
    };
    let before = wal_bytes();
    let mut off = Tracer::new(false, Instant::now());
    let mut ns = timed(name, calls, tracer, |_| {
        client
            .insert(&data::serve_set(&mut rng), &mut off, 0)
            .map(drop)
    })?;
    let per_write = (wal_bytes() - before) as f64 / ns.len().max(1) as f64;
    server.shutdown();
    std::fs::remove_dir_all(&data_dir).map_err(|e| format!("remove probe dir: {e}"))?;
    Ok((median_us(&mut ns), per_write))
}

/// `store.write_*`, `store.fsync_us`, `store.wal_bytes_per_write`: one
/// caller inserting into a fresh durable server under `SyncMode::Every`
/// and under `SyncMode::Never`; the difference is the fsync. `calls` is few
/// enough that no automatic snapshot truncates the WAL in between.
pub fn store_live(
    base: &ServerConfig,
    dir: &ScratchDir,
    calls: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let (sync_us, wal_bytes) = durable_writes(
        "store.write_sync",
        base,
        dir,
        SyncMode::Every,
        calls / 2,
        tracer,
    )?;
    let (nosync_us, _) = durable_writes(
        "store.write_nosync",
        base,
        dir,
        SyncMode::Never,
        calls * 2,
        tracer,
    )?;
    out.set("store.write_sync_us", sync_us);
    out.set("store.write_nosync_us", nosync_us);
    out.set("store.fsync_us", sync_us - nosync_us);
    out.set("store.wal_bytes_per_write", wal_bytes);
    Ok(())
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `store.recover_s`, `store.snapshot_s`, `store.disk_bytes_per_set`: with
/// the workload's server stopped, its directory is measured, reopened
/// (snapshots plus the WAL tail the run left) and snapshotted once.
pub fn store_at_rest(
    config: &ServerConfig,
    live_sets: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = config
        .data_dir
        .as_deref()
        .ok_or("durable workload has no data dir")?;
    out.set("store.disk_bytes_per_set", mean(dir_bytes(dir), live_sets));
    let start = Instant::now();
    let index = tracer
        .span("store.recover", 0, |_| ShardedIndex::open(config))
        .map_err(|e| format!("recovery failed: {e}"))?;
    out.set("store.recover_s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    tracer
        .span("store.snapshot", 0, |_| index.snapshot_now())
        .map_err(|e| format!("snapshot failed: {e}"))?;
    out.set("store.snapshot_s", start.elapsed().as_secs_f64());
    Ok(())
}

/// `cluster.*`: the router's query and insert, one `TcpTransport::call`
/// per node, connect-and-close alone, and the same router over
/// `SimCluster` — the protocol without sockets.
pub fn cluster(
    addrs: &[String],
    node_config: &ServerConfig,
    collection: &SetCollection,
    probes: &[Vec<ElementId>],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut off = Tracer::new(false, Instant::now());
    let mut client = RouterClient::new(addrs.to_vec());
    let mut ids = Vec::new();
    let mut query = timed("cluster.router.route_query", probes.len(), tracer, |i| {
        client.query(&probes[i], &mut ids, &mut off, 0).map(drop)
    })?;
    let mut insert = timed(
        "cluster.router.route_insert",
        probes.len() / 4,
        tracer,
        |i| client.insert(&probes[i], &mut off, 0).map(drop),
    )?;

    let mut transport = TcpTransport::new(addrs.to_vec());
    let mut line = String::new();
    let mut resp = String::new();
    let mut call = timed("cluster.transport.call", probes.len(), tracer, |i| {
        render_set_request(&mut line, "query", &probes[i]);
        transport
            .call(i % addrs.len(), line.trim_end(), &mut resp)
            .map_err(|e| format!("transport call: {e}"))
    })?;
    let mut connect = timed("cluster.transport.connect", probes.len(), tracer, |i| {
        TcpStream::connect(&addrs[i % addrs.len()])
            .map(drop)
            .map_err(|e| format!("connect: {e}"))
    })?;
    let query_us = median_us(&mut query);
    let call_us = median_us(&mut call);
    out.set("cluster.router.query_us", query_us);
    out.set("cluster.router.insert_us", median_us(&mut insert));
    out.set("cluster.transport.call_us", call_us);
    out.set("cluster.transport.connect_us", median_us(&mut connect));
    out.set(
        "cluster.router.fanout_overhead_us",
        query_us - addrs.len() as f64 * call_us,
    );

    let sim = SimCluster::start_memory(CLUSTER_NODES, node_config)?;
    let ring = HashRing::new(CLUSTER_NODES as u32, HashRing::DEFAULT_VNODES, SCHEME_SEED);
    let mut router = Router::new(sim, ring, 0);
    let mut scratch = RouterScratch::default();
    for (_, set) in collection.iter() {
        router
            .route_insert(set, &mut scratch)
            .map_err(|e| format!("sim preload: {e}"))?;
    }
    let mut seen = ClusterSeq::new(CLUSTER_NODES);
    let mut sim_query = timed("cluster.sim.route_query", probes.len(), tracer, |i| {
        router
            .route_query(&probes[i], &mut scratch, &mut ids, &mut seen)
            .map(drop)
            .map_err(|e| format!("sim query: {e}"))
    })?;
    out.set("cluster.sim.query_us", median_us(&mut sim_query));
    Ok(())
}
