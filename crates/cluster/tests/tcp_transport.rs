//! `TcpTransport` and the router's fan-out over real loopback sockets:
//! connection reuse, redial after a node restart, exactly-once writes,
//! timeouts, and line framing after a failure.
//!
//! Most peers here are [`FakeNode`]s — scripted wire-protocol endpoints
//! that count accepted connections and record every request line, which
//! is what the assertions are about; the timeout tests also run real
//! `serve_tcp` nodes beside a silent one.

use parking_lot::Mutex;
use ssj_cluster::{
    scan, ClusterSeq, HashRing, Replica, Router, RouterError, RouterScratch, TcpTransport,
    Transport, TransportError,
};
use ssj_serve::net::{client_call, serve_tcp};
use ssj_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a [`FakeNode`] does with one request line.
enum Answer {
    Reply(String),
    /// Reply only after this long — past the client's patience.
    ReplyAfter(Duration, String),
    /// Close the connection without replying.
    Close,
    /// Read on, never reply.
    Hang,
}

type Script = Arc<dyn Fn(&str) -> Answer + Send + Sync>;

/// State shared between a fake node's threads and the test.
#[derive(Default)]
struct Shared {
    accepts: AtomicUsize,
    stop: AtomicBool,
    lines: Mutex<Vec<String>>,
    streams: Mutex<Vec<TcpStream>>,
}

/// A scripted NDJSON peer on a loopback port.
struct FakeNode {
    addr: String,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl FakeNode {
    fn start(script: Script) -> Self {
        Self::start_on("127.0.0.1:0", script)
    }

    fn start_on(addr: &str, script: Script) -> Self {
        let listener = TcpListener::bind(addr).expect("bind fake node");
        let addr = listener.local_addr().expect("addr").to_string();
        let shared = Arc::new(Shared::default());
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut sessions = Vec::new();
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = conn.expect("accept");
                    shared.accepts.fetch_add(1, Ordering::SeqCst);
                    let clone = stream.try_clone().expect("clone");
                    shared.streams.lock().push(clone);
                    let (shared, script) = (Arc::clone(&shared), Arc::clone(&script));
                    sessions.push(std::thread::spawn(move || {
                        session(stream, &shared, &script)
                    }));
                }
                for s in sessions {
                    s.join().expect("fake session");
                }
            })
        };
        Self {
            addr,
            shared,
            acceptor,
        }
    }

    fn accepts(&self) -> usize {
        self.shared.accepts.load(Ordering::SeqCst)
    }

    /// Request lines received so far that contain `needle`.
    fn received(&self, needle: &str) -> usize {
        let lines = self.shared.lines.lock();
        lines.iter().filter(|l| l.contains(needle)).count()
    }

    /// Closes the listener and every accepted connection, as a dying
    /// process would; returns the address for a restart on the same port.
    fn kill(self) -> String {
        self.shared.stop.store(true, Ordering::SeqCst);
        for s in self.shared.streams.lock().iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(&self.addr);
        self.acceptor.join().expect("fake acceptor");
        self.addr
    }
}

fn session(stream: TcpStream, shared: &Shared, script: &Script) {
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return;
        }
        let request = line.trim_end();
        shared.lines.lock().push(request.into());
        let mut reply = match script(request) {
            Answer::Reply(reply) => reply,
            Answer::ReplyAfter(delay, reply) => {
                std::thread::sleep(delay);
                reply
            }
            Answer::Close => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Answer::Hang => continue,
        };
        reply.push('\n');
        if (&stream).write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// A node-shaped answer: a query finds the id equal to its set's first
/// element, an insert is acked with id 7.
fn echo(request: &str) -> Answer {
    if request.contains("\"op\":\"query\"") {
        let mut first = None;
        scan::for_each_array_u64(request, "set", |e| {
            first.get_or_insert(e);
        });
        let id = first.expect("query carries a set");
        Answer::Reply(format!(
            "{{\"ok\":true,\"op\":\"query\",\"ids\":[{id}],\"seen_seq\":1,\"probed\":1}}"
        ))
    } else {
        Answer::Reply("{\"ok\":true,\"op\":\"insert\",\"id\":7,\"seq\":0}".to_string())
    }
}

fn query_line(first: u64) -> String {
    format!("{{\"op\":\"query\",\"set\":[{first},1000]}}")
}

fn router_over(addrs: Vec<String>, io_timeout: Duration) -> Router<TcpTransport> {
    let ring = HashRing::new(addrs.len() as u32, HashRing::DEFAULT_VNODES, 42);
    let transport = TcpTransport::with_timeouts(addrs, Duration::from_secs(1), io_timeout);
    Router::new(transport, ring, 0)
}

/// A real `serve_tcp` node on its own thread.
struct RealNode {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl RealNode {
    fn start(cfg: &ServerConfig) -> Self {
        let server = Server::start(cfg.clone()).expect("server start");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind node");
        let addr = listener.local_addr().expect("addr").to_string();
        let thread = std::thread::spawn(move || serve_tcp(server, listener));
        Self { addr, thread }
    }

    /// Inserts `set` directly (not through a router); returns the
    /// node-local id.
    fn insert(&self, set: &str) -> u64 {
        let reply = client_call(&self.addr, &format!("{{\"op\":\"insert\",\"set\":{set}}}"))
            .expect("insert");
        scan::field_u64(&reply, "id").expect("insert ack carries an id")
    }

    fn stop(self) {
        client_call(&self.addr, "{\"op\":\"shutdown\"}").expect("shutdown");
        self.thread.join().expect("node thread").expect("serve_tcp");
    }
}

fn node_cfg() -> ServerConfig {
    ServerConfig {
        shards: 2,
        workers: 1,
        ..ServerConfig::default()
    }
}

#[test]
fn every_call_to_a_node_reuses_one_connection() {
    let nodes: Vec<FakeNode> = (0..3).map(|_| FakeNode::start(Arc::new(echo))).collect();
    let addrs = nodes.iter().map(|n| n.addr.clone()).collect();
    let mut router = router_over(addrs, Duration::from_secs(5));
    let mut scratch = RouterScratch::default();
    let (mut out, mut seen) = (Vec::new(), ClusterSeq::new(3));
    for i in 0..50u32 {
        router
            .route_query(&[i, 1000], &mut scratch, &mut out, &mut seen)
            .expect("query");
        // Node n found local id i: cluster ids i*3 + n, ascending.
        let want: Vec<u64> = (0..3).map(|n| u64::from(i) * 3 + n).collect();
        assert_eq!(out, want);
        router
            .route_insert(&[i, 2000], &mut scratch)
            .expect("insert");
    }
    assert_eq!(router.transport().dials(), 3);
    drop(router);
    for node in nodes {
        assert_eq!(node.accepts(), 1);
        assert_eq!(node.received("\"op\":\"query\""), 50);
        node.kill();
    }
}

#[test]
fn restarted_node_is_redialled_for_the_next_query() {
    let node = FakeNode::start(Arc::new(echo));
    let mut transport = TcpTransport::new(vec![node.addr.clone()]);
    let mut resp = String::new();
    transport.call(0, &query_line(5), &mut resp).expect("query");
    assert_eq!(transport.dials(), 1);

    let addr = node.kill();
    assert_eq!(
        transport.call(0, &query_line(6), &mut resp),
        Err(TransportError::Unreachable),
        "nothing listens while the node is down"
    );

    let node = FakeNode::start_on(&addr, Arc::new(echo));
    transport
        .call(0, &query_line(8), &mut resp)
        .expect("query after restart");
    assert_eq!(scan::field_u64(&resp, "seen_seq"), Some(1));
    assert!(resp.contains("\"ids\":[8]"), "{resp}");
    node.kill();
}

/// The stale-connection case proper: the node restarts *between* two calls
/// and the transport only finds out when the reused connection fails under
/// the next request. A query is re-sent on a new connection; an insert is
/// not.
#[test]
fn failure_on_a_reused_connection_resends_queries_but_never_writes() {
    // Closes the connection on every request whose set starts with 13 —
    // after reading it, as a node dying mid-exchange would.
    let script: Script = Arc::new(|request: &str| {
        if request.contains("\"set\":[13,") {
            Answer::Close
        } else {
            echo(request)
        }
    });
    let node = FakeNode::start(script);
    let mut router = router_over(vec![node.addr.clone()], Duration::from_secs(5));
    let mut scratch = RouterScratch::default();
    let (mut out, mut seen) = (Vec::new(), ClusterSeq::new(1));

    router
        .route_query(&[1, 1000], &mut scratch, &mut out, &mut seen)
        .expect("warm-up query");
    assert_eq!(router.transport().dials(), 1);

    // The insert reaches the node once, dies, and is reported — not retried.
    let err = router
        .route_insert(&[13, 2000], &mut scratch)
        .expect_err("the node hung up on the insert");
    assert!(
        matches!(&err, RouterError::Protocol(msg) if msg.contains("not re-sent")),
        "{err}"
    );
    assert_eq!(node.received("\"op\":\"insert\""), 1);
    assert_eq!(router.transport().dials(), 1, "no redial for a write");

    // The failed connection is gone: the next query dials a new one.
    router
        .route_query(&[2, 1000], &mut scratch, &mut out, &mut seen)
        .expect("query after the failed insert");
    assert_eq!(out, vec![2]);
    assert_eq!(router.transport().dials(), 2);

    // A query that dies on the (now reused) connection is re-sent once on
    // a fresh one — where this node hangs up again, so it fails for good.
    let err = router
        .route_query(&[13, 1000], &mut scratch, &mut out, &mut seen)
        .expect_err("the node hangs up on this query every time");
    assert_eq!(err, RouterError::NodeDown(0));
    assert_eq!(node.received("\"op\":\"query\",\"set\":[13,"), 2);
    assert_eq!(router.transport().dials(), 3);
    drop(router);
    node.kill();
}

#[test]
fn late_reply_is_never_read_as_the_next_answer() {
    let patience = Duration::from_millis(150);
    let script: Script = Arc::new(move |request: &str| match echo(request) {
        Answer::Reply(reply) if request.contains("\"set\":[1,") => {
            Answer::ReplyAfter(3 * patience, reply)
        }
        other => other,
    });
    let node = FakeNode::start(script);
    let mut transport =
        TcpTransport::with_timeouts(vec![node.addr.clone()], Duration::from_secs(1), patience);
    let mut resp = String::new();
    transport.call(0, &query_line(9), &mut resp).expect("query");

    assert_eq!(
        transport.call(0, &query_line(1), &mut resp),
        Err(TransportError::Unreachable)
    );
    assert_eq!(node.received("\"set\":[1,"), 1, "a timeout is not retried");

    // The reply to query 1 is still on its way; query 2 must get its own.
    transport.call(0, &query_line(2), &mut resp).expect("query");
    assert!(resp.contains("\"ids\":[2]"), "{resp}");
    assert_eq!(transport.dials(), 2);
    drop(transport);
    node.kill();
}

#[test]
fn silent_node_fails_the_query_in_time_and_healthy_nodes_stay_framed() {
    let cfg = node_cfg();
    let (left, right) = (RealNode::start(&cfg), RealNode::start(&cfg));
    let silent = FakeNode::start(Arc::new(|_: &str| Answer::Hang));
    let a = right.insert("[1,2,3,4,5]");
    let b = right.insert("[11,12,13,14,15]");
    assert_ne!(a, b);

    let patience = Duration::from_millis(150);
    let addrs = vec![left.addr.clone(), silent.addr.clone(), right.addr.clone()];
    let mut router = router_over(addrs, patience);
    let mut scratch = RouterScratch::default();
    let (mut out, mut seen) = (Vec::new(), ClusterSeq::new(3));

    let start = Instant::now();
    let err = router
        .route_query(&[1, 2, 3, 4, 5], &mut scratch, &mut out, &mut seen)
        .expect_err("node 1 never answers and has no replica");
    assert_eq!(err, RouterError::NodeDown(1));
    assert!(start.elapsed() < 10 * patience, "{:?}", start.elapsed());

    // Node 2 answered the failed query; that reply must not be what the
    // next request on its connection reads.
    let mut resp = String::new();
    router
        .transport_mut()
        .call(2, "{\"op\":\"query\",\"set\":[11,12,13,14,15]}", &mut resp)
        .expect("healthy node");
    assert!(resp.contains(&format!("\"ids\":[{b}]")), "{resp}");
    assert_eq!(silent.received("\"op\":\"query\""), 1);

    drop(router);
    silent.kill();
    left.stop();
    right.stop();
}

#[test]
fn silent_node_is_answered_by_its_replica() {
    let cfg = node_cfg();
    let nodes: Vec<RealNode> = (0..3).map(|_| RealNode::start(&cfg)).collect();
    let local = nodes[1].insert("[1,2,3,4,5]");
    // Snapshot shipping over the same persistent transport.
    let replica = {
        let addrs = nodes.iter().map(|n| n.addr.clone()).collect();
        let mut transport = TcpTransport::new(addrs);
        Replica::bootstrap(&mut transport, 1, &cfg).expect("bootstrap over tcp")
    };

    let silent = FakeNode::start(Arc::new(|_: &str| Answer::Hang));
    let patience = Duration::from_millis(150);
    let addrs = vec![
        nodes[0].addr.clone(),
        silent.addr.clone(),
        nodes[2].addr.clone(),
    ];
    let mut router = router_over(addrs, patience);
    router.attach_replica(replica);
    let mut scratch = RouterScratch::default();
    let (mut out, mut seen) = (Vec::new(), ClusterSeq::new(3));

    let start = Instant::now();
    let ack = router
        .route_query(&[1, 2, 3, 4, 5], &mut scratch, &mut out, &mut seen)
        .expect("replica stands in for the silent node");
    assert!(start.elapsed() < 10 * patience, "{:?}", start.elapsed());
    assert_eq!(ack.replica_answers, 1);
    assert_eq!(out, vec![local * 3 + 1]);

    drop(router);
    silent.kill();
    for node in nodes {
        node.stop();
    }
}
