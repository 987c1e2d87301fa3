//! The four serving workloads: `serve_handle`, `serve_wire`,
//! `serve_durable` and `cluster_wire`.
//!
//! All four run the same closed loop: each client sends its next request
//! only after the previous reply, for a warm-up and then the run's seconds.
//! The mix is stationary: a client owns the sets it inserted (its share of
//! the preload first), writes alternate between inserting a fresh random
//! set and removing the oldest set the client owns, and a query probes with
//! one of the client's *live* sets with one element replaced — so the live
//! count, the data distribution and the matches per query stay flat however
//! many operations a run completes. What the client owns is also the
//! benchmark's mirror of the index: after the run, with writers stopped,
//! check queries must equal a brute-force scan of that mirror.

use super::data::{self, GAMMA, SERVE_DOMAIN, SERVE_SET_SIZE};
use super::host::{self, ScratchDir};
use super::stats::{median, percentile_ns, spread};
use super::trace::{self, Tracer};
use super::{probes, Outcome, RunConfig, Scale, SCHEME_SEED, SETUP_REPEATS};
use rand::prelude::*;
use ssj_cluster::{scan, ClusterSeq, HashRing, Router, RouterScratch, TcpTransport};
use ssj_core::set::{ElementId, SetCollection};
use ssj_datagen::{generate_uniform, UniformConfig};
use ssj_serve::net::{client_call, serve_tcp};
use ssj_serve::{Handle, Request, Response, Server, ServerConfig, SyncMode};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process server, clients call `Handle::call`.
    Handle,
    /// The same server behind `serve_tcp`, one persistent connection per
    /// client.
    Wire,
    /// In-process server with a data directory, WAL fsynced by
    /// [`DURABLE_SYNC`].
    Durable,
    /// Three nodes behind `serve_tcp`, one `Router<TcpTransport>` client.
    Cluster,
}

/// Nodes of `cluster_wire`.
pub const CLUSTER_NODES: usize = 3;

/// Flush policy of `serve_durable`: group commit, one fsync per 100 ms at
/// most — what `ssjoin serve --sync interval` runs with. Every write is
/// appended to the WAL before its ack and snapshots still fsync. With an
/// fsync per write the workload's throughput *is* the device's flush
/// latency, which on a shared disk moves by a third between two runs of the
/// same commit; that cost is measured by the traced run's `store.*` probes
/// (`SyncMode::Every` against `SyncMode::Never`) instead of gating on it.
pub const DURABLE_SYNC: SyncMode = SyncMode::Interval(Duration::from_millis(100));

/// The fixed numbers of one workload. Worker and shard counts are never
/// `0 = auto`, so records compare across hosts; at most two clients load a
/// two-core box.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Sets inserted before the first warm-up request.
    pub preload: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Share of requests that are queries; the rest alternate insert and
    /// remove.
    pub query_frac: f64,
    /// Index shards per server.
    pub shards: usize,
    /// Worker threads per server.
    pub workers: usize,
    /// Seconds of discarded warm-up.
    pub warmup_s: f64,
    /// Seconds per throughput round.
    pub round_s: f64,
    /// Check queries after the run.
    pub checks: usize,
    /// Calls per layer probe in a traced run.
    pub probe_calls: usize,
}

impl Kind {
    /// The workload's fixed numbers at `scale`.
    pub fn plan(self, scale: Scale) -> Plan {
        let (preload, clients, query_frac, shards, workers) = match self {
            Kind::Handle | Kind::Wire => (100_000, 2, 0.8, 4, 2),
            Kind::Durable => (20_000, 2, 0.2, 4, 2),
            Kind::Cluster => (10_000, 1, 0.9, 2, 1),
        };
        match scale {
            Scale::Full => Plan {
                preload,
                clients,
                query_frac,
                shards,
                workers,
                warmup_s: 1.0,
                round_s: 1.0,
                checks: 200,
                probe_calls: 2_000,
            },
            Scale::Tiny => Plan {
                preload: 300,
                clients,
                query_frac,
                shards,
                workers,
                warmup_s: 0.02,
                round_s: 0.05,
                checks: 40,
                probe_calls: 20,
            },
        }
    }

    fn label(self) -> &'static str {
        match self {
            Kind::Handle => "serve_handle",
            Kind::Wire => "serve_wire",
            Kind::Durable => "serve_durable",
            Kind::Cluster => "cluster_wire",
        }
    }
}

/// One connection's (or caller's) view of the system under test. Every
/// failure — refusal, timeout, transport or protocol error — is an `Err`
/// with the reason, never a panic.
pub trait Client: Send {
    /// Fills `ids` with the matching ids (ascending); returns the
    /// candidates the system probed.
    fn query(
        &mut self,
        set: &[ElementId],
        ids: &mut Vec<u64>,
        t: &mut Tracer,
        req: u64,
    ) -> Result<u64, String>;
    /// Inserts `set`; returns its id.
    fn insert(&mut self, set: &[ElementId], t: &mut Tracer, req: u64) -> Result<u64, String>;
    /// Removes `id`; returns whether it was live.
    fn remove(&mut self, id: u64, t: &mut Tracer, req: u64) -> Result<bool, String>;
    /// Node answers that came from a replica instead of the live owner.
    fn replica_answers(&self) -> u64 {
        0
    }
}

/// Calls `Handle::call` in process.
pub struct HandleClient(pub Handle);

impl HandleClient {
    fn call(&self, request: Request, t: &mut Tracer, req: u64) -> Response {
        t.span("server.service.call", req, |_| self.0.call(request))
    }
}

impl Client for HandleClient {
    fn query(
        &mut self,
        set: &[ElementId],
        ids: &mut Vec<u64>,
        t: &mut Tracer,
        req: u64,
    ) -> Result<u64, String> {
        let elems = set.to_vec();
        match self.call(Request::Query { elems }, t, req) {
            Response::Matches {
                ids: got, probed, ..
            } => {
                *ids = got;
                Ok(probed)
            }
            other => Err(format!("query answered {other:?}")),
        }
    }

    fn insert(&mut self, set: &[ElementId], t: &mut Tracer, req: u64) -> Result<u64, String> {
        let elems = set.to_vec();
        match self.call(Request::Insert { elems }, t, req) {
            Response::Inserted { id, .. } => Ok(id),
            other => Err(format!("insert answered {other:?}")),
        }
    }

    fn remove(&mut self, id: u64, t: &mut Tracer, req: u64) -> Result<bool, String> {
        match self.call(Request::Remove { id }, t, req) {
            Response::Removed { found, .. } => Ok(found),
            other => Err(format!("remove answered {other:?}")),
        }
    }
}

/// Speaks NDJSON over one persistent `TcpStream` with default socket
/// options: one write per request line, one read per reply line.
pub struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    resp: String,
}

impl WireClient {
    /// Connects to a `serve_tcp` endpoint.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = writer
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Self {
            writer,
            reader: BufReader::new(reader),
            line: String::new(),
            resp: String::new(),
        })
    }

    /// Sends `self.line` (newline included) and reads the reply line.
    fn exchange(&mut self, t: &mut Tracer, req: u64) -> Result<(), String> {
        t.span("server.net.roundtrip", req, |_| {
            self.writer.write_all(self.line.as_bytes())?;
            self.resp.clear();
            self.reader.read_line(&mut self.resp).map(|_| ())
        })
        .map_err(|e| format!("wire i/o: {e}"))?;
        if !scan::is_ok(&self.resp) {
            return Err(format!("wire answered {:?}", self.resp.trim_end()));
        }
        Ok(())
    }

    /// Sends a raw request line; the reply stays in `self.resp`.
    pub fn raw(&mut self, line: &str) -> Result<&str, String> {
        self.line.clear();
        self.line.push_str(line);
        self.line.push('\n');
        self.exchange(&mut Tracer::new(false, Instant::now()), 0)?;
        Ok(self.resp.trim_end())
    }
}

/// Renders `{"op":<op>,"set":[...]}` plus newline into `line`.
pub fn render_set_request(line: &mut String, op: &str, set: &[ElementId]) {
    line.clear();
    let _ = write!(line, "{{\"op\":\"{op}\",\"set\":[");
    for (i, e) in set.iter().enumerate() {
        let _ = write!(line, "{}{e}", if i > 0 { "," } else { "" });
    }
    line.push_str("]}\n");
}

impl Client for WireClient {
    fn query(
        &mut self,
        set: &[ElementId],
        ids: &mut Vec<u64>,
        t: &mut Tracer,
        req: u64,
    ) -> Result<u64, String> {
        t.span("client.encode", req, |_| {
            render_set_request(&mut self.line, "query", set)
        });
        self.exchange(t, req)?;
        t.span("client.parse", req, |_| {
            ids.clear();
            let got = scan::for_each_array_u64(&self.resp, "ids", |id| ids.push(id));
            match (got, scan::field_u64(&self.resp, "probed")) {
                (true, Some(probed)) => Ok(probed),
                _ => Err(format!("query reply lacks ids/probed: {:?}", self.resp)),
            }
        })
    }

    fn insert(&mut self, set: &[ElementId], t: &mut Tracer, req: u64) -> Result<u64, String> {
        t.span("client.encode", req, |_| {
            render_set_request(&mut self.line, "insert", set)
        });
        self.exchange(t, req)?;
        t.span("client.parse", req, |_| scan::field_u64(&self.resp, "id"))
            .ok_or_else(|| format!("insert reply lacks id: {:?}", self.resp))
    }

    fn remove(&mut self, id: u64, t: &mut Tracer, req: u64) -> Result<bool, String> {
        t.span("client.encode", req, |_| {
            self.line.clear();
            let _ = writeln!(self.line, "{{\"op\":\"remove\",\"id\":{id}}}");
        });
        self.exchange(t, req)?;
        Ok(t.span("client.parse", req, |_| {
            self.resp.contains("\"found\":true")
        }))
    }
}

/// Routes through `Router<TcpTransport>`: the cluster's one coordinator.
pub struct RouterClient {
    router: Router<TcpTransport>,
    scratch: RouterScratch,
    seen: ClusterSeq,
    replica_answers: u64,
}

impl RouterClient {
    /// A router over `addrs` with the workload's ring.
    pub fn new(addrs: Vec<String>) -> Self {
        let nodes = addrs.len();
        let ring = HashRing::new(nodes as u32, HashRing::DEFAULT_VNODES, SCHEME_SEED);
        Self {
            router: Router::new(TcpTransport::new(addrs), ring, 0),
            scratch: RouterScratch::default(),
            seen: ClusterSeq::new(nodes),
            replica_answers: 0,
        }
    }
}

impl Client for RouterClient {
    fn query(
        &mut self,
        set: &[ElementId],
        ids: &mut Vec<u64>,
        t: &mut Tracer,
        req: u64,
    ) -> Result<u64, String> {
        let ack = t
            .span("cluster.router.route_query", req, |_| {
                self.router
                    .route_query(set, &mut self.scratch, ids, &mut self.seen)
            })
            .map_err(|e| format!("route_query: {e}"))?;
        self.replica_answers += u64::from(ack.replica_answers);
        Ok(ack.probed)
    }

    fn insert(&mut self, set: &[ElementId], t: &mut Tracer, req: u64) -> Result<u64, String> {
        t.span("cluster.router.route_insert", req, |_| {
            self.router.route_insert(set, &mut self.scratch)
        })
        .map(|ack| ack.id)
        .map_err(|e| format!("route_insert: {e}"))
    }

    fn remove(&mut self, id: u64, t: &mut Tracer, req: u64) -> Result<bool, String> {
        t.span("cluster.router.route_remove", req, |_| {
            self.router.route_remove(id, &mut self.scratch)
        })
        .map(|ack| ack.found)
        .map_err(|e| format!("route_remove: {e}"))
    }

    fn replica_answers(&self) -> u64 {
        self.replica_answers
    }
}

/// What one client owns: the live sets it inserted, oldest first, and its
/// random stream.
pub struct Owned {
    /// `(id, set)` of every live set this client inserted, oldest first.
    pub sets: VecDeque<(u64, Vec<ElementId>)>,
    rng: StdRng,
    insert_next: bool,
    next_req: u64,
}

impl Owned {
    fn new(seed: u64, client: usize) -> Self {
        Self {
            sets: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed ^ (0xC11E27 + client as u64)),
            insert_next: true,
            next_req: (client as u64) << 48,
        }
    }

    fn probe(&mut self) -> Vec<ElementId> {
        if self.sets.is_empty() {
            return data::serve_set(&mut self.rng);
        }
        let pick = self.rng.gen_range(0..self.sets.len());
        data::perturb(&mut self.rng, &self.sets[pick].1)
    }
}

/// Kind of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A similarity query.
    Query,
    /// An insert.
    Insert,
    /// A remove.
    Remove,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Nanoseconds from the loop's origin to the reply.
    pub done_ns: u64,
    /// Client-observed latency.
    pub lat_ns: u64,
    /// Request kind.
    pub op: Op,
    /// Answered, and answered plausibly.
    pub ok: bool,
    /// Ids a query returned.
    pub matches: u32,
    /// Spans were being recorded when the request was sent.
    pub traced: bool,
}

/// When the loop records, traces and stops, in nanoseconds from `origin`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Shared zero of all clients.
    pub origin: Instant,
    /// Requests completing before this are warm-up.
    pub measure_from_ns: u64,
    /// A traced run alternates slices of this length, plain then traced,
    /// from `measure_from_ns` on, so that whatever drifts during the run
    /// (the index keeps removed sets) weighs on both alike; 0: never trace.
    pub trace_slice_ns: u64,
    /// The loop stops once the clock passes this.
    pub end_ns: u64,
    /// Share of requests that are queries.
    pub query_frac: f64,
}

/// Runs one client's closed loop over `window`; returns a sample per
/// request, warm-up included, and the first failure's reason.
pub fn closed_loop(
    client: &mut dyn Client,
    own: &mut Owned,
    window: &Window,
    tracer: &mut Tracer,
) -> (Vec<Sample>, Option<String>) {
    let mut samples = Vec::new();
    let mut first_failure = None;
    let mut ids = Vec::new();
    loop {
        let now_ns = window.origin.elapsed().as_nanos() as u64;
        if now_ns >= window.end_ns {
            break;
        }
        let traced = window.trace_slice_ns > 0
            && now_ns >= window.measure_from_ns
            && (now_ns - window.measure_from_ns) / window.trace_slice_ns % 2 == 1;
        tracer.set_on(traced);
        let req = own.next_req;
        own.next_req += 1;
        let (op, lat, result) = if own.rng.gen_range(0.0..1.0) < window.query_frac {
            let probe = own.probe();
            let start = Instant::now();
            let result = tracer.span("request", req, |t| client.query(&probe, &mut ids, t, req));
            (Op::Query, start.elapsed(), result.map(|_| ids.len() as u32))
        } else if own.insert_next || own.sets.is_empty() {
            own.insert_next = false;
            let set = data::serve_set(&mut own.rng);
            let start = Instant::now();
            let result = tracer.span("request", req, |t| client.insert(&set, t, req));
            let lat = start.elapsed();
            (
                Op::Insert,
                lat,
                result.map(|id| {
                    own.sets.push_back((id, set));
                    0
                }),
            )
        } else {
            own.insert_next = true;
            let (id, _) = own.sets.pop_front().expect("checked non-empty");
            let start = Instant::now();
            let result = tracer.span("request", req, |t| client.remove(id, t, req));
            let lat = start.elapsed();
            // Only this client removes ids it owns: `found: false` is a
            // wrong answer.
            let result = result.and_then(|found| {
                found
                    .then_some(0)
                    .ok_or_else(|| format!("remove of live id {id} answered found:false"))
            });
            (Op::Remove, lat, result)
        };
        let done_ns = window.origin.elapsed().as_nanos() as u64;
        if let Err(reason) = &result {
            first_failure.get_or_insert_with(|| reason.clone());
        }
        samples.push(Sample {
            done_ns,
            lat_ns: lat.as_nanos() as u64,
            op,
            ok: result.is_ok(),
            matches: result.unwrap_or(0),
            traced,
        });
    }
    (samples, first_failure)
}

/// The served collection: `n` uniform sets of [`SERVE_SET_SIZE`] elements.
fn serve_collection(n: usize, seed: u64) -> SetCollection {
    generate_uniform(UniformConfig {
        base_sets: n,
        set_size: SERVE_SET_SIZE,
        domain: SERVE_DOMAIN,
        similar_fraction: 0.0,
        planted_similarity: 0.9,
        seed,
    })
}

/// A `serve_tcp` endpoint on its own thread.
struct Endpoint {
    addr: String,
    handle: Handle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Endpoint {
    fn start(config: ServerConfig) -> Result<Self, String> {
        let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let handle = server.handle();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let thread = std::thread::spawn(move || serve_tcp(server, listener));
        Ok(Self {
            addr,
            handle,
            thread,
        })
    }

    fn stop(self) -> Result<(), String> {
        client_call(&self.addr, "{\"op\":\"shutdown\"}")
            .map_err(|e| format!("shutdown {}: {e}", self.addr))?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve_tcp: {e}")),
            Err(_) => Err("serve_tcp thread panicked".to_string()),
        }
    }
}

/// The running system of one workload.
pub struct System {
    kind: Kind,
    /// The in-process server of `serve_handle` and `serve_durable`.
    pub server: Option<Server>,
    endpoints: Vec<Endpoint>,
    /// The configuration every server of the workload runs with.
    pub config: ServerConfig,
}

impl System {
    fn start(kind: Kind, plan: &Plan, data_dir: Option<&ScratchDir>) -> Result<Self, String> {
        let config = ServerConfig {
            gamma: GAMMA,
            shards: plan.shards,
            workers: plan.workers,
            queue_capacity: 1024,
            seed: SCHEME_SEED,
            initial_max_size: SERVE_SET_SIZE,
            data_dir: data_dir.map(|d| d.0.join("data")),
            sync: DURABLE_SYNC,
            ..ServerConfig::default()
        };
        let mut system = Self {
            kind,
            server: None,
            endpoints: Vec::new(),
            config: config.clone(),
        };
        match kind {
            Kind::Handle | Kind::Durable => {
                system.server =
                    Some(Server::start(config).map_err(|e| format!("server start: {e}"))?);
            }
            Kind::Wire => system.endpoints.push(Endpoint::start(config)?),
            Kind::Cluster => {
                for _ in 0..CLUSTER_NODES {
                    system.endpoints.push(Endpoint::start(config.clone())?);
                }
            }
        }
        Ok(system)
    }

    /// A handle to the single server (`None` for the cluster).
    pub fn handle(&self) -> Option<Handle> {
        match self.kind {
            Kind::Handle | Kind::Durable => self.server.as_ref().map(Server::handle),
            Kind::Wire => Some(self.endpoints[0].handle.clone()),
            Kind::Cluster => None,
        }
    }

    /// Addresses of the `serve_tcp` endpoints.
    pub fn addrs(&self) -> Vec<String> {
        self.endpoints.iter().map(|e| e.addr.clone()).collect()
    }

    /// The clients that preload: `Handle` callers, or the cluster's router.
    fn preload_clients(&self, plan: &Plan) -> Vec<Box<dyn Client>> {
        match self.handle() {
            Some(handle) => (0..plan.clients)
                .map(|_| Box::new(HandleClient(handle.clone())) as Box<dyn Client>)
                .collect(),
            None => vec![Box::new(RouterClient::new(self.addrs()))],
        }
    }

    /// Live sets the servers report, where a handle can ask.
    fn live_sets(&self) -> Option<u64> {
        self.handle().map(|h| h.stats().live_sets.iter().sum())
    }

    /// Stops every server and waits for its threads.
    pub fn stop(self) -> Result<(), String> {
        if let Some(server) = self.server {
            server.shutdown();
        }
        self.endpoints.into_iter().try_for_each(Endpoint::stop)
    }
}

/// A preloaded system, its measuring clients and what each of them owns.
struct Ready {
    system: System,
    clients: Vec<Box<dyn Client>>,
    owned: Vec<Owned>,
    collection: SetCollection,
}

/// Generates the served sets, starts the system and preloads it, each
/// client inserting every `clients`-th set and owning what it inserted.
fn set_up(
    kind: Kind,
    plan: &Plan,
    cfg: &RunConfig,
    data_dir: Option<&ScratchDir>,
) -> Result<Ready, String> {
    let collection = serve_collection(plan.preload, cfg.seed);
    let system = System::start(kind, plan, data_dir)?;
    let mut clients = system.preload_clients(plan);
    let mut owned: Vec<Owned> = (0..plan.clients).map(|c| Owned::new(cfg.seed, c)).collect();
    let stride = plan.clients;
    std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(owned.iter_mut())
            .enumerate()
            .map(|(c, (client, own))| {
                let collection = &collection;
                scope.spawn(move || -> Result<(), String> {
                    let mut tracer = Tracer::new(false, Instant::now());
                    for i in (c..collection.len()).step_by(stride) {
                        let set = collection.set(i as u32);
                        let id = client.insert(set, &mut tracer, 0)?;
                        own.sets.push_back((id, set.to_vec()));
                    }
                    Ok(())
                })
            })
            .collect();
        threads.into_iter().try_for_each(|t| {
            t.join()
                .map_err(|_| "preload thread panicked".to_string())?
        })
    })
    .map_err(|e| format!("preload: {e}"))?;
    if kind == Kind::Wire {
        let addr = system.addrs().remove(0);
        clients = (0..plan.clients)
            .map(|_| WireClient::connect(&addr).map(|c| Box::new(c) as Box<dyn Client>))
            .collect::<Result<_, _>>()?;
    }
    Ok(Ready {
        system,
        clients,
        owned,
        collection,
    })
}

/// Stops the system and, for the durable workload, empties its data
/// directory for the next set-up.
fn tear_down(
    system: System,
    clients: Vec<Box<dyn Client>>,
    data_dir: Option<&ScratchDir>,
) -> Result<(), String> {
    drop(clients);
    system.stop()?;
    match data_dir {
        Some(d) => {
            std::fs::remove_dir_all(d.0.join("data")).map_err(|e| format!("reset data dir: {e}"))
        }
        None => Ok(()),
    }
}

/// Latency summary of the ok samples `keep` selects: p50 and p99 in
/// nanoseconds and the sample count.
fn latency(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> (f64, f64, usize) {
    let mut lat: Vec<u64> = samples
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(|s| s.lat_ns)
        .collect();
    lat.sort_unstable();
    (
        percentile_ns(&lat, 0.5),
        percentile_ns(&lat, 0.99),
        lat.len(),
    )
}

/// Correctly answered requests per second in `[from_ns, to_ns)`, timed from
/// the last completion before the interval to the last one inside it, so
/// the rate keeps its digits when a round holds a few dozen requests.
/// `samples` ascend by completion time.
fn rate(samples: &[Sample], from_ns: u64, to_ns: u64) -> f64 {
    let lo = samples.partition_point(|s| s.done_ns < from_ns);
    let hi = samples.partition_point(|s| s.done_ns < to_ns);
    if hi == lo {
        return 0.0;
    }
    let begun = if lo > 0 {
        samples[lo - 1].done_ns
    } else {
        from_ns
    };
    let ok = samples[lo..hi].iter().filter(|s| s.ok).count();
    ok as f64 / ((samples[hi - 1].done_ns - begun) as f64 / 1e9)
}

/// Ids of the mirror's sets within the threshold of `probe`, ascending.
fn expected_matches(mirror: &[(u64, Vec<ElementId>)], probe: &[ElementId]) -> Vec<u64> {
    let mut ids: Vec<u64> = mirror
        .iter()
        .filter(|(_, set)| data::similar(set, probe))
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Longest the check queries may take: a system that needs 44 ms per
/// request answers fewer of them, not a longer run.
const CHECK_BUDGET_S: f64 = 2.0;

/// With writers stopped, sends up to `checks` probes through `client`
/// (until [`CHECK_BUDGET_S`] is spent) and compares each answer with a
/// brute-force scan of the mirror; returns `(attempted, failed)`.
fn check_against_mirror(
    client: &mut dyn Client,
    mirror: &[(u64, Vec<ElementId>)],
    checks: usize,
    seed: u64,
) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ec);
    let mut tracer = Tracer::new(false, Instant::now());
    let begun = Instant::now();
    let mut answered: Vec<(Vec<ElementId>, Option<Vec<u64>>)> = Vec::with_capacity(checks);
    while answered.len() < checks && begun.elapsed().as_secs_f64() < CHECK_BUDGET_S {
        let source = &mirror[rng.gen_range(0..mirror.len())].1;
        let probe = data::perturb(&mut rng, source);
        let mut ids = Vec::new();
        let answer = client
            .query(&probe, &mut ids, &mut tracer, 0)
            .ok()
            .map(|_| ids);
        answered.push((probe, answer));
    }
    let failed = data::count_on_two_threads(&answered, |(probe, answer)| {
        answer.as_ref() != Some(&expected_matches(mirror, probe))
    });
    (answered.len() as u64, failed)
}

/// What the closed loop left behind.
struct Measured {
    /// A sample per request of every client, ascending by completion.
    samples: Vec<Sample>,
    /// Index of the first sample past the warm-up.
    warm_up: usize,
    /// Spans per client (traced runs).
    span_lists: Vec<Vec<trace::Span>>,
    first_failure: Option<String>,
}

/// Runs every client's closed loop over `window`, one thread each.
fn drive(clients: &mut [Box<dyn Client>], owned: &mut [Owned], window: Window) -> Measured {
    let per_client: Vec<(Vec<Sample>, Option<String>, Vec<trace::Span>)> =
        std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .iter_mut()
                .zip(owned.iter_mut())
                .map(|(client, own)| {
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(false, window.origin);
                        let (samples, failure) =
                            closed_loop(client.as_mut(), own, &window, &mut tracer);
                        (samples, failure, tracer.into_spans())
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .collect()
        });
    let mut measured = Measured {
        samples: Vec::new(),
        warm_up: 0,
        span_lists: Vec::new(),
        first_failure: None,
    };
    for (samples, failure, spans) in per_client {
        measured.samples.extend(samples);
        measured.span_lists.push(spans);
        measured.first_failure = measured.first_failure.take().or(failure);
    }
    measured.samples.sort_unstable_by_key(|s| s.done_ns);
    measured.warm_up = measured
        .samples
        .partition_point(|s| s.done_ns < window.measure_from_ns);
    measured
}

/// Runs one serving workload.
pub fn run(kind: Kind, cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = kind.plan(cfg.scale);
    let dir = ScratchDir::create(&cfg.work_dir, kind.label())?;
    let data_dir = (kind == Kind::Durable).then_some(&dir);

    let mut setup = Vec::new();
    let start = Instant::now();
    let Ready {
        system,
        mut clients,
        mut owned,
        collection,
    } = set_up(kind, &plan, cfg, data_dir)?;
    setup.push(start.elapsed().as_secs_f64());
    // Memory is read here, with the index preloaded and before the loop:
    // the index keeps removed sets' storage, so memory at exit grows with
    // the requests a time-bounded run completes, and a faster system would
    // read as a hungrier one.
    let rss_after_set_up = host::peak_rss_mb();

    // The closed loop: warm-up, then the measured seconds; a traced run
    // records spans during every other twelfth of them.
    let seconds_ns = (cfg.seconds * 1e9) as u64;
    let measure_from_ns = (plan.warmup_s * 1e9) as u64;
    let window = Window {
        origin: Instant::now(),
        measure_from_ns,
        trace_slice_ns: if cfg.trace { seconds_ns / 12 } else { 0 },
        end_ns: measure_from_ns + seconds_ns,
        query_frac: plan.query_frac,
    };
    let Measured {
        samples,
        warm_up,
        mut span_lists,
        first_failure,
    } = drive(&mut clients, &mut owned, window);
    let measured = &samples[warm_up..];

    // Output checks, untimed, writers stopped.
    let mirror: Vec<(u64, Vec<ElementId>)> = owned
        .iter_mut()
        .flat_map(|own| own.sets.drain(..))
        .collect();
    let (mut attempted, mut failed) =
        check_against_mirror(clients[0].as_mut(), &mirror, plan.checks, cfg.seed);
    if let Some(live) = system.live_sets() {
        attempted += 1;
        failed += u64::from(live != mirror.len() as u64);
    }
    let mut out = Outcome {
        attempted: attempted + measured.len() as u64,
        failed: failed + samples.iter().filter(|s| !s.ok).count() as u64,
        ..Outcome::default()
    };
    out.counts = vec![
        ("preload_sets", collection.len() as u64),
        ("live_sets", mirror.len() as u64),
    ];
    if let Some(reason) = first_failure {
        out.notes.push(("first_failure", reason));
    }

    if cfg.trace {
        let plain: Vec<Sample> = measured.iter().copied().filter(|s| !s.traced).collect();
        let (q50, q99, _) = latency(&plain, |s| s.op == Op::Query);
        let (w50, w99, _) = latency(&plain, |s| s.op != Op::Query);
        out.set("client.query_p50_us", q50 / 1e3);
        out.set("client.query_p99_us", q99 / 1e3);
        out.set("client.write_p50_us", w50 / 1e3);
        out.set("client.write_p99_us", w99 / 1e3);
        let queries: Vec<&Sample> = plain.iter().filter(|s| s.ok && s.op == Op::Query).collect();
        out.set(
            "client.matches_per_query",
            queries.iter().map(|s| f64::from(s.matches)).sum::<f64>() / queries.len().max(1) as f64,
        );
        // Plain and traced slices cover the same time: the ratio of the
        // requests answered in each is the ratio of the rates.
        let answered_plain = plain.iter().filter(|s| s.ok).count();
        let answered_traced = measured.iter().filter(|s| s.ok && s.traced).count();
        if answered_traced > 0 {
            out.set(
                "trace.overhead_frac",
                answered_plain as f64 / answered_traced as f64 - 1.0,
            );
        }
        let mut tracer = Tracer::new(true, window.origin);
        let running = Running {
            kind,
            plan: &plan,
            system,
            clients,
            collection: &collection,
            mirror: &mirror,
            dir: &dir,
        };
        probe_layers(running, cfg.seed, &mut tracer, &mut out)?;
        span_lists.push(tracer.into_spans());
        out.spans = trace::merge(span_lists);
        return Ok(out);
    }

    let round_ns = (plan.round_s * 1e9) as u64;
    let rounds: Vec<f64> = (0..(seconds_ns / round_ns).max(1))
        .map(|r| {
            let from = measure_from_ns + r * round_ns;
            rate(&samples, from, from + round_ns)
        })
        .collect();
    let (q50, q99, q_n) = latency(measured, |s| s.op == Op::Query);
    let (w50, w99, w_n) = latency(measured, |s| s.op != Op::Query);
    // The workload's own kind of request: writes where they are four
    // fifths of the mix, queries elsewhere. A median over the pooled kinds
    // would sit wherever the mix puts the 50th percentile.
    let p50 = if plan.query_frac < 0.5 { w50 } else { q50 };
    out.set("ops_per_s", median(&rounds));
    out.set("op_p50_ms", p50 / 1e6);
    out.set("peak_rss_mb", rss_after_set_up);
    out.notes.push(("query_samples", q_n.to_string()));
    out.notes.push(("write_samples", w_n.to_string()));
    for (name, ns) in [
        ("query_p50_us", q50),
        ("query_p99_us", q99),
        ("write_p50_us", w50),
        ("write_p99_us", w99),
    ] {
        out.notes.push((name, format!("{:.3}", ns / 1e3)));
    }
    if q_n.min(w_n) < 1000 {
        out.notes.push((
            "low_n",
            "a p99 above rests on under 1000 samples".to_string(),
        ));
    }
    tear_down(system, clients, data_dir)?;
    // Set-up is the metric too: two more, timed only.
    drop((owned, collection, samples));
    while setup.len() < SETUP_REPEATS {
        let start = Instant::now();
        let again = set_up(kind, &plan, cfg, data_dir)?;
        setup.push(start.elapsed().as_secs_f64());
        tear_down(again.system, again.clients, data_dir)?;
    }
    out.set("setup_s", median(&setup));
    out.spreads = vec![("ops_per_s", spread(&rounds)), ("setup_s", spread(&setup))];
    Ok(out)
}

/// The still-running system a traced run hands to the layer probes.
struct Running<'a> {
    kind: Kind,
    plan: &'a Plan,
    system: System,
    clients: Vec<Box<dyn Client>>,
    collection: &'a SetCollection,
    mirror: &'a [(u64, Vec<ElementId>)],
    dir: &'a ScratchDir,
}

/// Calls each layer the workload enters directly (`probes`), then stops
/// the system; the durable workload's directory is probed at rest.
fn probe_layers(
    running: Running<'_>,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let Running {
        kind,
        plan,
        system,
        clients,
        collection,
        mirror,
        dir,
    } = running;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e0be);
    let probe_sets: Vec<Vec<ElementId>> = (0..plan.probe_calls)
        .map(|_| {
            let pick = rng.gen_range(0..mirror.len());
            data::perturb(&mut rng, &mirror[pick].1)
        })
        .collect();
    match kind {
        Kind::Handle => {
            let server = system.server.as_ref().expect("in-process server");
            let index = Some(server.index());
            probes::service(&server.handle(), index, &probe_sets, tracer, out)?;
            probes::index(collection, plan.probe_calls, seed, tracer, out)?;
        }
        Kind::Wire => {
            let handle = system.handle().expect("single server");
            probes::service(&handle, None, &probe_sets, tracer, out)?;
            probes::wire(&system.addrs()[0], &handle, &probe_sets, tracer, out)?;
        }
        Kind::Durable => {
            let server = system.server.as_ref().expect("in-process server");
            let every = system.config.snapshot_every.max(1);
            let cycles = server.stats().seq / every - collection.len() as u64 / every;
            out.set("store.snapshots", cycles as f64);
            probes::store_live(&system.config, dir, plan.probe_calls, tracer, out)?;
        }
        Kind::Cluster => {
            let replica_answers: u64 = clients.iter().map(|c| c.replica_answers()).sum();
            out.set("cluster.router.replica_answers", replica_answers as f64);
            let (addrs, config) = (system.addrs(), &system.config);
            probes::cluster(&addrs, config, collection, &probe_sets, tracer, out)?;
        }
    }
    drop(clients);
    let config = system.config.clone();
    system.stop()?;
    if kind == Kind::Durable {
        probes::store_at_rest(&config, mirror.len(), tracer, out)?;
    }
    Ok(())
}
