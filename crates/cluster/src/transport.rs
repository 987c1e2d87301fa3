//! How the router reaches nodes: one trait, a TCP implementation, and (in
//! [`crate::sim`]) the deterministic in-process simulation.
//!
//! The unit of exchange is the NDJSON wire protocol's — one request line
//! in, one response line out — so every transport speaks exactly the
//! protocol a single `ssjoin serve` process speaks, and the router cannot
//! observe which one it is on. The response buffers are caller-provided and
//! reused, keeping the scatter-gather steady state allocation-free.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a node call failed at the transport layer (before any response
/// line was produced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The node is down, partitioned away, refused the connection, or —
    /// for a read-only request — did not complete the exchange in time.
    /// Nothing was applied. The router treats this as "owner unavailable"
    /// and fails reads over to a replica.
    Unreachable,
    /// The connection failed mid-exchange. For a write the request may or
    /// may not have been applied; the transport never re-sends it.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable => write!(f, "node unreachable"),
            TransportError::Io(msg) => write!(f, "transport i/o: {msg}"),
        }
    }
}

/// One-line-in, one-line-out access to a fixed set of nodes.
pub trait Transport {
    /// Number of nodes this transport can address (node ids are
    /// `0..nodes()`).
    fn nodes(&self) -> usize;

    /// Sends `line` (without trailing newline) to `node` and fills `resp`
    /// with the response line (cleared first, no trailing newline).
    fn call(&mut self, node: usize, line: &str, resp: &mut String) -> Result<(), TransportError>;

    /// The fan-out: sends the read-only request `line` to every node
    /// `0..resps.len()`, fills `resps[node]` with that node's response
    /// line and leaves one outcome per node, in node order, in `outcomes`
    /// (cleared first). A transport may overlap the exchanges and may
    /// re-send `line`, so it must not be a write. By default the nodes are
    /// called one after another.
    fn call_all(
        &mut self,
        line: &str,
        resps: &mut [String],
        outcomes: &mut Vec<Result<(), TransportError>>,
    ) {
        outcomes.clear();
        for (node, resp) in resps.iter_mut().enumerate() {
            outcomes.push(self.call(node, line, resp));
        }
    }
}

/// How long a dial may take before the node counts as unreachable.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// How long one socket read or write may block. Longer than a node's
/// default queue deadline (5 s), so an overloaded node's own `timeout`
/// answer arrives before the transport gives up on it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Requests that change nothing on the node, so sending one twice is safe.
/// Every other op — and any line this cannot classify — is a write.
fn is_read_only(line: &str) -> bool {
    const OP: &str = "\"op\":\"";
    let Some(at) = line.find(OP) else {
        return false;
    };
    let op = &line[at + OP.len()..];
    let op = &op[..op.find('"').unwrap_or(0)];
    matches!(op, "query" | "stats" | "tail" | "snap_fetch")
}

/// An exchange that failed on an established connection.
struct Fault {
    err: io::Error,
    /// At least one request byte was handed to the socket.
    sent: bool,
}

impl Fault {
    /// Whether the node stayed silent for the I/O timeout (as opposed to
    /// the connection being closed or reset under the exchange).
    fn timed_out(&self) -> bool {
        matches!(
            self.err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }
}

/// One node's open connection.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    /// Completed at least one exchange. A failure on such a connection may
    /// only mean the node restarted since; on a fresh one it is the node.
    reused: bool,
}

impl Conn {
    /// Writes all of `request`, reporting on failure whether any byte left.
    fn send_request(&self, request: &[u8]) -> Result<(), Fault> {
        let mut stream = self.reader.get_ref();
        let mut written = 0;
        while written < request.len() {
            match stream.write(&request[written..]) {
                Ok(0) => {
                    return Err(Fault {
                        err: io::ErrorKind::WriteZero.into(),
                        sent: written > 0,
                    })
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => {
                    return Err(Fault {
                        err,
                        sent: written > 0,
                    })
                }
            }
        }
        Ok(())
    }

    /// Reads one response line into `resp` (cleared first, line ending
    /// stripped). End of stream before a full line is a failure: the node
    /// went away.
    fn recv_reply(&mut self, resp: &mut String) -> Result<(), Fault> {
        resp.clear();
        let fault = |err| Fault { err, sent: true };
        self.reader.read_line(resp).map_err(fault)?;
        if !resp.ends_with('\n') {
            return Err(fault(io::ErrorKind::UnexpectedEof.into()));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        self.reused = true;
        Ok(())
    }
}

/// Real-TCP transport: one persistent connection per node, dialled on
/// first use with `TCP_NODELAY` and fixed timeouts ([`CONNECT_TIMEOUT`],
/// [`IO_TIMEOUT`]), each request sent as a single write.
///
/// **Any** failed or timed-out exchange closes that node's connection, so
/// a late reply can never be read as the answer to a later request. After
/// a failure on a *reused* connection — the usual sign of a node that
/// restarted since the last call — the transport redials and re-sends
/// once, but only what is safe to send twice: a read-only request, or a
/// write of which no byte had left. A write that fails after its first
/// byte returns [`TransportError::Io`] and is never re-sent; a timeout is
/// never retried at all.
#[derive(Debug)]
pub struct TcpTransport {
    addrs: Vec<String>,
    /// Index = node id; `None` until dialled and after any failure. A
    /// connection is taken out of its slot for each send and each receive
    /// and put back only on success, so a failed one is closed by drop.
    conns: Vec<Option<Conn>>,
    /// The request being sent, newline appended, for a single write.
    request: Vec<u8>,
    connect_timeout: Duration,
    io_timeout: Duration,
    dials: u64,
}

impl TcpTransport {
    /// Builds the transport over one address per node. No connection is
    /// opened until a node is first called.
    pub fn new(addrs: Vec<String>) -> Self {
        Self::with_timeouts(addrs, CONNECT_TIMEOUT, IO_TIMEOUT)
    }

    /// [`TcpTransport::new`] with other timeouts, for tests that provoke
    /// them. Deployments use the constants: a timeout shorter than a
    /// node's queue deadline would turn overload into failover.
    #[doc(hidden)]
    pub fn with_timeouts(addrs: Vec<String>, connect: Duration, io: Duration) -> Self {
        let conns = addrs.iter().map(|_| None).collect();
        Self {
            addrs,
            conns,
            request: Vec::new(),
            connect_timeout: connect,
            io_timeout: io,
            dials: 0,
        }
    }

    /// The node addresses, index = node id.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Connections opened so far. A healthy cluster stays at one per node
    /// called; anything above that counts redials after failures.
    pub fn dials(&self) -> u64 {
        self.dials
    }

    /// Stores `line` plus newline as the request to send.
    fn set_request(&mut self, line: &str) {
        self.request.clear();
        self.request.extend_from_slice(line.as_bytes());
        self.request.push(b'\n');
    }

    /// Opens a connection to `node`.
    fn dial_node(&mut self, node: usize) -> Result<Conn, TransportError> {
        let addr = self.addrs.get(node).ok_or(TransportError::Unreachable)?;
        let stream = addr
            .to_socket_addrs()
            .ok()
            .into_iter()
            .flatten()
            .find_map(|a| TcpStream::connect_timeout(&a, self.connect_timeout).ok())
            .ok_or(TransportError::Unreachable)?;
        let io = Some(self.io_timeout);
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(io))
            .and_then(|()| stream.set_write_timeout(io))
            .map_err(|_| TransportError::Unreachable)?;
        self.dials += 1;
        Ok(Conn {
            reader: BufReader::new(stream),
            reused: false,
        })
    }

    /// Puts the stored request on the wire to `node`, dialling if no
    /// connection is open. On `Ok` a reply is outstanding.
    fn begin_exchange(&mut self, node: usize, read_only: bool) -> Result<(), TransportError> {
        loop {
            let slot = self.conns.get_mut(node);
            let conn = match slot.ok_or(TransportError::Unreachable)?.take() {
                Some(conn) => conn,
                None => self.dial_node(node)?,
            };
            match conn.send_request(&self.request) {
                Ok(()) => {
                    self.conns[node] = Some(conn);
                    return Ok(());
                }
                // `conn` is closed here; the next one is freshly dialled,
                // not reused, so a second failure is final.
                Err(fault) => after_fault(conn.reused, fault, read_only)?,
            }
        }
    }

    /// Reads the reply [`TcpTransport::begin_exchange`] left outstanding
    /// on `node`.
    fn end_exchange(
        &mut self,
        node: usize,
        read_only: bool,
        resp: &mut String,
    ) -> Result<(), TransportError> {
        loop {
            // The block closes a failed connection before the redial.
            let (fault, reused) = {
                let slot = self.conns.get_mut(node);
                let mut conn = slot
                    .and_then(Option::take)
                    .ok_or(TransportError::Unreachable)?;
                match conn.recv_reply(resp) {
                    Ok(()) => {
                        self.conns[node] = Some(conn);
                        return Ok(());
                    }
                    Err(fault) => (fault, conn.reused),
                }
            };
            after_fault(reused, fault, read_only)?;
            self.begin_exchange(node, read_only)?;
        }
    }
}

/// What follows an exchange that failed on a connection the caller is
/// closing: `Ok(())` means the request may be sent again on a new one.
fn after_fault(reused: bool, fault: Fault, read_only: bool) -> Result<(), TransportError> {
    let resendable = read_only || !fault.sent;
    if reused && resendable && !fault.timed_out() {
        return Ok(());
    }
    if resendable {
        return Err(TransportError::Unreachable);
    }
    // hotlint: allow(hot-alloc): a write's terminal failure, reported once — the fan-out sends only read-only requests and never gets here.
    Err(TransportError::Io(format!(
        "{}; the write may or may not have been applied and was not re-sent",
        fault.err
    )))
}

impl Transport for TcpTransport {
    fn nodes(&self) -> usize {
        self.addrs.len()
    }

    fn call(&mut self, node: usize, line: &str, resp: &mut String) -> Result<(), TransportError> {
        resp.clear();
        let read_only = is_read_only(line);
        self.set_request(line);
        self.begin_exchange(node, read_only)?;
        self.end_exchange(node, read_only, resp)
    }

    /// Writes the request to every node before reading any reply, so the
    /// nodes work at the same time and the fan-out costs the slowest node,
    /// not the sum. On return no connection has a reply outstanding: each
    /// was read, or its connection was closed.
    fn call_all(
        &mut self,
        line: &str,
        resps: &mut [String],
        outcomes: &mut Vec<Result<(), TransportError>>,
    ) {
        outcomes.clear();
        self.set_request(line);
        for node in 0..resps.len() {
            outcomes.push(self.begin_exchange(node, true));
        }
        for (node, resp) in resps.iter_mut().enumerate() {
            if outcomes[node].is_ok() {
                outcomes[node] = self.end_exchange(node, true, resp);
            } else {
                resp.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::is_read_only;

    #[test]
    fn only_known_reads_may_be_sent_twice() {
        for line in [
            r#"{"op":"query","set":[1,2]}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"tail","from_seq":3}"#,
            r#"{"op":"snap_fetch"}"#,
        ] {
            assert!(is_read_only(line), "{line}");
        }
        for line in [
            r#"{"op":"insert","set":[1,2]}"#,
            r#"{"op":"remove","id":7}"#,
            r#"{"op":"query_insert","set":[1,2]}"#,
            r#"{"op":"compact"}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"something_new"}"#,
            r#"{"set":[1,2]}"#,
            r#"{"op":"query"#,
            "",
        ] {
            assert!(!is_read_only(line), "{line}");
        }
    }
}
