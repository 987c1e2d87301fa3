//! Network and stdio frontends for the wire protocol.
//!
//! [`serve_connection`] runs one newline-delimited JSON session over any
//! `BufRead`/`Write` pair; [`serve_tcp`] accepts TCP clients and runs each
//! on its own thread; [`serve_stdio`] runs a single session over the
//! process's stdin/stdout. A `{"op":"shutdown"}` line from any session
//! triggers a graceful drain of the whole server.

use crate::service::{Handle, Response, Server};
use crate::wire::{encode_response, parse_request, WireRequest};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client closed its end of the connection.
    Eof,
    /// The client sent `{"op":"shutdown"}`.
    Shutdown,
}

/// Longest request line a session accepts, newline excluded. Sized above
/// the largest legal request: the default `max_set_len` (65 536) elements
/// of at most ten digits and a comma each is about 704 KiB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_request_line`] found.
enum LineRead {
    /// End of input before any byte of a further line.
    Eof,
    /// `line` holds one request line (newline stripped).
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; all of it was discarded.
    TooLong,
}

/// Reads the next line into the reused `line` buffer, never holding more
/// than [`MAX_LINE_BYTES`] of it: the tail of an over-long line is consumed
/// and dropped, so the session resumes at the next line boundary. A final
/// line without a newline still counts, as with `BufRead::lines`.
fn read_request_line<R: BufRead>(input: &mut R, line: &mut Vec<u8>) -> io::Result<LineRead> {
    line.clear();
    let mut too_long = false;
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // A line ends at its newline or, unterminated, at end of input.
        let newline = buf.iter().position(|&b| b == b'\n');
        let ended = newline.is_some() || buf.is_empty();
        let chunk = &buf[..newline.unwrap_or(buf.len())];
        if line.len() + chunk.len() > MAX_LINE_BYTES {
            too_long = true;
            line.clear();
        } else if !too_long {
            line.extend_from_slice(chunk);
        }
        let used = chunk.len() + usize::from(newline.is_some());
        input.consume(used);
        if ended {
            return Ok(if too_long {
                LineRead::TooLong
            } else if newline.is_none() && line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
    }
}

/// Runs one wire-protocol session: one response line per request line.
///
/// Malformed and over-long ([`MAX_LINE_BYTES`]) lines are answered with a
/// `bad_request` response and the session continues; only I/O failures and
/// shutdown end it. Each reply leaves as a single write, newline included:
/// split in two, the second write would wait out Nagle's algorithm against
/// the client's delayed ACK (about 40 ms per exchange on Linux).
pub fn serve_connection<R: BufRead, W: Write>(
    handle: &Handle,
    mut input: R,
    mut output: W,
) -> io::Result<SessionEnd> {
    let mut line = Vec::new();
    loop {
        let parsed = match read_request_line(&mut input, &mut line)? {
            LineRead::Eof => return Ok(SessionEnd::Eof),
            LineRead::TooLong => Err(format!("line too long (limit {MAX_LINE_BYTES} bytes)")),
            LineRead::Line => match std::str::from_utf8(&line) {
                Err(_) => Err("request line is not valid UTF-8".to_string()),
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => parse_request(text),
            },
        };
        let mut reply = match parsed {
            Err(msg) => encode_response(&Response::Error(msg)),
            Ok(WireRequest::Call { req }) => encode_response(&handle.call(req)),
            Ok(WireRequest::Shutdown) => {
                output.write_all(b"{\"ok\":true,\"op\":\"shutdown\"}\n")?;
                output.flush()?;
                return Ok(SessionEnd::Shutdown);
            }
        };
        reply.push('\n');
        output.write_all(reply.as_bytes())?;
        output.flush()?;
    }
}

/// Serves TCP clients on `listener` until one of them sends
/// `{"op":"shutdown"}`, then drains the server and returns.
///
/// Each connection runs on its own thread with a cloned [`Handle`]. Once a
/// shutdown arrives, the accept loop is woken by a loop-back connection,
/// in-flight requests are answered, and still-connected clients receive
/// `shutting_down` responses to any further calls.
pub fn serve_tcp(server: Server, listener: TcpListener) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Replies are single small writes; never hold one back for an ACK.
        // Best effort: a socket that refuses the option still works.
        let _ = stream.set_nodelay(true);
        let handle = server.handle();
        let stop = Arc::clone(&stop);
        // Detached on purpose: a lingering client cannot block shutdown —
        // its future calls answer `shutting_down`, and the thread dies
        // with the process.
        let _ = std::thread::Builder::new()
            .name("ssj-serve-conn".to_string())
            .spawn(move || {
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let outcome = serve_connection(&handle, BufReader::new(read_half), &stream);
                if matches!(outcome, Ok(SessionEnd::Shutdown)) {
                    stop.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the flag.
                    let _ = TcpStream::connect(addr);
                }
            });
    }
    // Drain (which flushes the WAL to stable storage on a durable server)
    // completes *before* this function returns and drops the listener, so
    // every write acked over a connection is on disk by the time the port
    // closes.
    server.shutdown();
    Ok(())
}

/// Runs one session over the process's stdin/stdout, then drains the
/// server (whether the session ended by EOF or an explicit shutdown).
pub fn serve_stdio(server: Server) -> io::Result<SessionEnd> {
    let handle = server.handle();
    let stdin = io::stdin();
    let stdout = io::stdout();
    let end = serve_connection(&handle, stdin.lock(), stdout.lock())?;
    server.shutdown();
    Ok(end)
}

/// One-shot client: sends `line` to a wire-protocol server at `addr` and
/// returns the single response line.
pub fn client_call(addr: &str, line: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut request = String::with_capacity(line.len() + 1);
    request.push_str(line);
    request.push('\n');
    (&stream).write_all(request.as_bytes())?;
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::service::Server;

    fn test_server() -> Server {
        Server::start(ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        })
        .expect("valid config")
    }

    #[test]
    fn scripted_stdio_style_session() {
        let server = test_server();
        let handle = server.handle();
        let script = concat!(
            "{\"op\":\"insert\",\"set\":[1,2,3,4,5]}\n",
            "\n", // blank lines are ignored
            "{\"op\":\"query\",\"set\":[1,2,3,4,5]}\n",
            "not json\n",
            "{\"op\":\"stats\"}\n",
        );
        let mut out = Vec::new();
        let end = serve_connection(&handle, script.as_bytes(), &mut out).expect("io ok");
        assert_eq!(end, SessionEnd::Eof);
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"op\":\"insert\""), "{}", lines[0]);
        assert!(lines[1].contains("\"ids\":["), "{}", lines[1]);
        assert!(lines[2].contains("bad_request"), "{}", lines[2]);
        assert!(lines[3].contains("\"op\":\"stats\""), "{}", lines[3]);
        server.shutdown();
    }

    #[test]
    fn oversized_set_answers_wire_error_and_session_continues() {
        let server = Server::start(ServerConfig {
            shards: 2,
            max_set_len: 4,
            ..ServerConfig::default()
        })
        .expect("valid config");
        let handle = server.handle();
        let script = concat!(
            "{\"op\":\"insert\",\"set\":[1,2,3,4,5,6,7,8]}\n",
            "{\"op\":\"query\",\"set\":[9,8,7,6,5,4,3,2,1]}\n",
            "{\"op\":\"insert\",\"set\":[1,2,3]}\n",
        );
        let mut out = Vec::new();
        let end = serve_connection(&handle, script.as_bytes(), &mut out).expect("io ok");
        assert_eq!(end, SessionEnd::Eof);
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("bad_request") && lines[0].contains("max_set_len"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("bad_request"), "{}", lines[1]);
        assert!(lines[2].contains("\"op\":\"insert\""), "{}", lines[2]);
        server.shutdown();
    }

    #[test]
    fn overlong_line_answers_wire_error_and_session_continues() {
        let server = test_server();
        let handle = server.handle();
        // Both over-long lines span many `BufRead` refills; the second one
        // is far past the bound, and the last request ends without newline.
        let mut script = vec![b'9'; MAX_LINE_BYTES + 1];
        script.extend_from_slice(b"\n{\"op\":\"insert\",\"set\":[1,2,3]}\n");
        script.extend_from_slice(&vec![b'x'; 3 * MAX_LINE_BYTES]);
        script.extend_from_slice(b"\n\xff\xfe\n{\"op\":\"stats\"}");
        let mut out = Vec::new();
        let end = serve_connection(&handle, script.as_slice(), &mut out).expect("io ok");
        assert_eq!(end, SessionEnd::Eof);
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 5, "{lines:?}");
        for i in [0, 2] {
            assert!(
                lines[i].contains("bad_request") && lines[i].contains("line too long"),
                "{}",
                lines[i]
            );
        }
        assert!(lines[1].contains("\"op\":\"insert\""), "{}", lines[1]);
        assert!(lines[3].contains("not valid UTF-8"), "{}", lines[3]);
        assert!(lines[4].contains("\"op\":\"stats\""), "{}", lines[4]);
        server.shutdown();
    }

    #[test]
    fn line_at_the_bound_is_still_parsed() {
        let server = test_server();
        let handle = server.handle();
        // JSON whitespace pads a legal request to exactly the bound.
        let request = "{\"op\":\"insert\",\"set\":[1,2,3]}";
        let mut script = " ".repeat(MAX_LINE_BYTES - request.len());
        script.push_str(request);
        script.push('\n');
        let mut out = Vec::new();
        serve_connection(&handle, script.as_bytes(), &mut out).expect("io ok");
        let reply = std::str::from_utf8(&out).expect("utf8");
        assert!(reply.contains("\"op\":\"insert\""), "{reply}");
        server.shutdown();
    }

    /// The benchmark's client shape: default socket options, one write per
    /// request, one reply read before the next request. A reply split over
    /// two writes costs this client about 40 ms per exchange (Nagle against
    /// its delayed ACK), so 200 exchanges took 8.8 s; one write takes
    /// milliseconds.
    #[test]
    fn persistent_connection_exchanges_are_not_ack_bound() {
        let server = test_server();
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("addr").to_string();
        let srv = std::thread::spawn(move || serve_tcp(server, listener));
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(&stream);
        let mut reply = String::new();
        let start = std::time::Instant::now();
        for i in 0..200u32 {
            let request = format!("{{\"op\":\"query\",\"set\":[{i},{},{}]}}\n", i + 1, i + 2);
            (&stream).write_all(request.as_bytes()).expect("write");
            reply.clear();
            reader.read_line(&mut reply).expect("read");
            assert!(reply.contains("\"ids\":["), "{reply}");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "200 exchanges took {elapsed:?}"
        );
        client_call(&addr, "{\"op\":\"shutdown\"}").expect("shutdown");
        srv.join().expect("server thread").expect("serve_tcp io");
    }

    #[test]
    fn tcp_round_trip_with_shutdown() {
        let server = test_server();
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("addr").to_string();
        let srv = std::thread::spawn(move || serve_tcp(server, listener));
        let insert = client_call(&addr, "{\"op\":\"insert\",\"set\":[9,8,7]}").expect("insert");
        assert!(insert.contains("\"ok\":true"), "{insert}");
        let query = client_call(&addr, "{\"op\":\"query\",\"set\":[7,8,9]}").expect("query");
        assert!(query.contains("\"ids\":["), "{query}");
        let bye = client_call(&addr, "{\"op\":\"shutdown\"}").expect("shutdown");
        assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
        srv.join().expect("server thread").expect("serve_tcp io");
    }
}
