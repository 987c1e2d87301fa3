//! Deterministic in-process multi-node harness.
//!
//! [`SimCluster`] runs N real [`ssj_serve::Server`] instances inside one
//! process and implements [`Transport`] by pushing each request line
//! through the *real* wire codec — `wire::parse_request` on the way in,
//! `wire::encode_response` on the way out — so the router exercises
//! exactly the bytes a TCP deployment exchanges, minus the socket. That
//! makes multi-node runs:
//!
//! * **deterministic** — calls are synchronous and single-file; a seeded
//!   driver (difftest, crashtest) reproduces a run exactly from its seed;
//! * **faultable** — [`SimCluster::kill`], [`SimCluster::restart`], and
//!   [`SimCluster::partition`] turn nodes unreachable the same way a dead
//!   TCP peer does ([`TransportError::Unreachable`]), and durable nodes
//!   restart by recovering from their own data directories.
//!
//! The harness is the first-class deliverable of the cluster subsystem:
//! every distributed claim in DESIGN.md §5j is checked against it before
//! it is ever pointed at real sockets.

use crate::transport::{Transport, TransportError};
use ssj_serve::{wire, Handle, Server, ServerConfig};
use std::path::PathBuf;

/// One simulated node: a real server plus its fault flags.
struct SimNode {
    cfg: ServerConfig,
    /// `None` while the node is killed.
    server: Option<Server>,
    handle: Option<Handle>,
    /// Partitioned from the router (the node itself keeps running).
    partitioned: bool,
}

impl SimNode {
    fn start(cfg: ServerConfig) -> Result<Self, String> {
        let server = Server::start(cfg.clone()).map_err(|e| e.to_string())?;
        let handle = server.handle();
        Ok(Self {
            cfg,
            server: Some(server),
            handle: Some(handle),
            partitioned: false,
        })
    }
}

/// N in-process nodes behind the [`Transport`] interface.
pub struct SimCluster {
    nodes: Vec<SimNode>,
}

impl SimCluster {
    /// Starts `n` memory-only nodes, all from `base` (per-node state is
    /// independent; the shared seed keeps the in-node shard placement
    /// identical everywhere, matching a homogeneous deployment).
    pub fn start_memory(n: usize, base: &ServerConfig) -> Result<Self, String> {
        let dirs: Vec<Option<PathBuf>> = vec![None; n];
        Self::start_with_dirs(base, &dirs)
    }

    /// Starts one durable node per directory in `dirs` (`None` entries are
    /// memory-only). Restarting a durable node recovers from its
    /// directory, exactly like a crashed-and-restarted process.
    pub fn start_durable(base: &ServerConfig, dirs: &[PathBuf]) -> Result<Self, String> {
        let dirs: Vec<Option<PathBuf>> = dirs.iter().cloned().map(Some).collect();
        Self::start_with_dirs(base, &dirs)
    }

    fn start_with_dirs(base: &ServerConfig, dirs: &[Option<PathBuf>]) -> Result<Self, String> {
        assert!(!dirs.is_empty(), "a cluster needs at least one node");
        let mut nodes = Vec::with_capacity(dirs.len());
        for dir in dirs {
            let cfg = ServerConfig {
                data_dir: dir.clone(),
                ..base.clone()
            };
            nodes.push(SimNode::start(cfg)?);
        }
        Ok(Self { nodes })
    }

    /// The configuration node `node` runs with.
    pub fn node_config(&self, node: usize) -> &ServerConfig {
        &self.nodes[node].cfg
    }

    /// Direct access to a running node's server (snapshot control and
    /// test instrumentation); `None` while killed.
    pub fn server(&self, node: usize) -> Option<&Server> {
        self.nodes[node].server.as_ref()
    }

    /// True when `node` would answer a call right now.
    pub fn is_reachable(&self, node: usize) -> bool {
        let Some(n) = self.nodes.get(node) else {
            return false;
        };
        n.server.is_some() && !n.partitioned
    }

    /// Stops `node`: drops its server (a durable node's acked-but-unsynced
    /// tail stays in its WAL file, exactly as a killed process leaves it)
    /// and makes it unreachable until [`SimCluster::restart`].
    pub fn kill(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        n.handle = None;
        if let Some(server) = n.server.take() {
            server.shutdown();
        }
    }

    /// Restarts a killed node from its configuration — a durable node
    /// recovers from its data directory, a memory-only node comes back
    /// empty.
    pub fn restart(&mut self, node: usize) -> Result<(), String> {
        let cfg = self.nodes[node].cfg.clone();
        let fresh = SimNode::start(cfg)?;
        let partitioned = self.nodes[node].partitioned;
        self.nodes[node] = SimNode {
            partitioned,
            ..fresh
        };
        Ok(())
    }

    /// Cuts (or heals) the link between the router and `node`. The node
    /// keeps running — unlike [`SimCluster::kill`] its state is intact
    /// when the partition heals.
    pub fn partition(&mut self, node: usize, cut: bool) {
        self.nodes[node].partitioned = cut;
    }

    /// Gracefully stops every node.
    pub fn shutdown(mut self) {
        for node in &mut self.nodes {
            node.handle = None;
            if let Some(server) = node.server.take() {
                server.shutdown();
            }
        }
    }
}

impl Transport for SimCluster {
    fn nodes(&self) -> usize {
        self.nodes.len()
    }

    fn call(&mut self, node: usize, line: &str, resp: &mut String) -> Result<(), TransportError> {
        resp.clear();
        let Some(n) = self.nodes.get(node) else {
            return Err(TransportError::Unreachable);
        };
        if n.partitioned {
            return Err(TransportError::Unreachable);
        }
        let Some(handle) = n.handle.as_ref() else {
            return Err(TransportError::Unreachable);
        };
        // The real codec on both edges: the router's rendered line is
        // parsed exactly as the TCP frontend parses it, and the response
        // travels back as the line the frontend would write.
        let reply = match wire::parse_request(line) {
            Err(msg) => wire::encode_response(&ssj_serve::Response::Error(msg)),
            Ok(wire::WireRequest::Call { req }) => wire::encode_response(&handle.call(req)),
            Ok(wire::WireRequest::Shutdown) => {
                return Err(TransportError::Io("shutdown not routable".into()))
            }
        };
        resp.push_str(&reply);
        Ok(())
    }
}
