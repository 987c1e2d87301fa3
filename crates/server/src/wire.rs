//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, over TCP or stdio.
//! Requests are objects with an `"op"` discriminator:
//!
//! ```json
//! {"op":"insert","set":[1,2,3]}
//! {"op":"query","set":[1,2,3]}
//! {"op":"query_insert","set":[4,5,6]}
//! {"op":"remove","id":12}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Fields an op does not use are ignored, so a `"deadline_ms"` from an older
//! client is accepted: a call runs as soon as it is admitted.
//!
//! Successful responses carry `"ok":true` plus the op's payload; failures
//! carry `"ok":false` and an `"error"` discriminator (`"overloaded"`,
//! `"shutting_down"`, or `"bad_request"` with a message):
//!
//! ```json
//! {"ok":true,"op":"insert","id":12,"seq":3}
//! {"ok":true,"op":"query","ids":[12],"seen_seq":4,"probed":7}
//! {"ok":false,"error":"overloaded"}
//! ```
//!
//! Malformed lines never kill a connection: they are answered with a
//! `bad_request` response and the session continues.

use crate::metrics::{HistogramSnapshot, StatsSnapshot};
use crate::service::{Request, Response};
use ssj_core::set::ElementId;
use ssj_io::json::{parse, write_escaped};
use std::fmt::Write as _;

/// A parsed client line: either a service request or the session-level
/// shutdown command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Submit this to the service.
    Call {
        /// The operation.
        req: Request,
    },
    /// `{"op":"shutdown"}`: drain the server and close.
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let value = parse(line)?;
    let obj = value.as_object()?;
    let op = obj
        .get("op")
        .ok_or_else(|| "missing \"op\" field".to_string())?
        .as_str()?;
    let set_field = || -> Result<Vec<ElementId>, String> {
        let items = obj
            .get("set")
            .ok_or_else(|| format!("op {op:?} requires a \"set\" array"))?
            .as_array()?;
        items
            .iter()
            .map(|v| {
                let x = v.as_u64()?;
                ElementId::try_from(x).map_err(|_| format!("element {x} exceeds the u32 domain"))
            })
            .collect()
    };
    let req = match op {
        "insert" => Request::Insert {
            elems: set_field()?,
        },
        "query" => Request::Query {
            elems: set_field()?,
        },
        "query_insert" => Request::QueryInsert {
            elems: set_field()?,
        },
        "remove" => Request::Remove {
            id: obj
                .get("id")
                .ok_or_else(|| "op \"remove\" requires an \"id\" field".to_string())?
                .as_u64()?,
        },
        "stats" => Request::Stats,
        "compact" => Request::Compact,
        "tail" => Request::Tail {
            from_seq: obj
                .get("from_seq")
                .ok_or_else(|| "op \"tail\" requires a \"from_seq\" field".to_string())?
                .as_u64()?,
        },
        "snap_fetch" => Request::SnapFetch,
        "shutdown" => return Ok(WireRequest::Shutdown),
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(WireRequest::Call { req })
}

/// Appends `bytes` as a lowercase-hex JSON string (with quotes). Binary
/// payloads — shipped snapshot images, WAL frames — cross the NDJSON wire
/// in this form: the framing and checksums inside stay byte-identical to
/// the on-disk formats, hex is only the JSON-safe envelope.
fn write_hex(out: &mut String, bytes: &[u8]) {
    out.push('"');
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out.push('"');
}

/// Decodes a lowercase-hex string as the wire encodes binary payloads
/// (quotes already stripped by the JSON parser).
pub fn parse_hex(s: &str) -> Result<Vec<u8>, String> {
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return Err("hex payload has odd length".into());
    }
    let nibble = |d: u8| -> Result<u8, String> {
        match d {
            b'0'..=b'9' => Ok(d - b'0'),
            b'a'..=b'f' => Ok(d - b'a' + 10),
            other => Err(format!("bad hex digit {:?}", other as char)),
        }
    };
    digits
        .chunks_exact(2)
        .map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

/// Appends `,"durable_seq":N` when the server is durable; memory-only
/// servers omit the field entirely, keeping their response lines
/// byte-identical to the pre-persistence protocol.
fn write_durable(out: &mut String, durable: Option<u64>) {
    if let Some(d) = durable {
        let _ = write!(out, ",\"durable_seq\":{d}");
    }
}

fn write_ids(out: &mut String, ids: &[u64]) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push(']');
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
        h.count,
        h.mean_micros(),
        h.quantile_micros(0.5),
        h.quantile_micros(0.95),
        h.quantile_micros(0.99),
    );
}

fn write_stats(out: &mut String, s: &StatsSnapshot) {
    let _ = write!(out, "\"seq\":{},", s.seq);
    let _ = write!(
        out,
        "\"accepted\":{},\"overloaded\":{},\"timeouts\":{},",
        s.accepted, s.overloaded, s.timeouts
    );
    out.push_str("\"live_sets\":");
    write_ids(out, &s.live_sets);
    out.push_str(",\"shards\":[");
    for (i, c) in s.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"inserts\":{},\"removes\":{},\"queries\":{},\"candidates_probed\":{},\"bitmap_pruned\":{},\"verified_hits\":{}}}",
            c.inserts, c.removes, c.queries, c.candidates_probed, c.bitmap_pruned, c.verified_hits
        );
    }
    out.push_str("],\"service_time\":");
    write_histogram(out, &s.service_time);
}

/// Encodes one response line (without the trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let mut out = String::new();
    match resp {
        Response::Inserted { id, seq, durable } => {
            let _ = write!(
                out,
                "{{\"ok\":true,\"op\":\"insert\",\"id\":{id},\"seq\":{seq}"
            );
            write_durable(&mut out, *durable);
            out.push('}');
        }
        Response::Removed {
            found,
            seq,
            durable,
        } => {
            let _ = write!(
                out,
                "{{\"ok\":true,\"op\":\"remove\",\"found\":{found},\"seq\":{seq}"
            );
            write_durable(&mut out, *durable);
            out.push('}');
        }
        Response::Matches {
            ids,
            seen_seq,
            probed,
        } => {
            out.push_str("{\"ok\":true,\"op\":\"query\",\"ids\":");
            write_ids(&mut out, ids);
            let _ = write!(out, ",\"seen_seq\":{seen_seq},\"probed\":{probed}}}");
        }
        Response::QueryInserted {
            ids,
            id,
            seq,
            probed,
            durable,
        } => {
            out.push_str("{\"ok\":true,\"op\":\"query_insert\",\"ids\":");
            write_ids(&mut out, ids);
            let _ = write!(out, ",\"id\":{id},\"seq\":{seq},\"probed\":{probed}");
            write_durable(&mut out, *durable);
            out.push('}');
        }
        Response::Stats(s) => {
            out.push_str("{\"ok\":true,\"op\":\"stats\",");
            write_stats(&mut out, s);
            out.push('}');
        }
        Response::Compacted { seq, sets, file } => {
            let _ = write!(
                out,
                "{{\"ok\":true,\"op\":\"compact\",\"seq\":{seq},\"sets\":{sets},\"file\":"
            );
            write_escaped(&mut out, file);
            out.push('}');
        }
        Response::WalTail { from_seq, frames } => {
            let _ = write!(out, "{{\"ok\":true,\"op\":\"tail\",\"from_seq\":{from_seq}");
            match frames {
                Some(frames) => {
                    out.push_str(",\"frames\":");
                    write_hex(&mut out, frames);
                }
                None => out.push_str(",\"truncated\":true"),
            }
            out.push('}');
        }
        Response::Snapshots { seq, shards } => {
            let _ = write!(
                out,
                "{{\"ok\":true,\"op\":\"snap_fetch\",\"seq\":{seq},\"shards\":["
            );
            for (i, image) in shards.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_hex(&mut out, image);
            }
            out.push_str("]}");
        }
        Response::Overloaded => out.push_str("{\"ok\":false,\"error\":\"overloaded\"}"),
        Response::ShuttingDown => out.push_str("{\"ok\":false,\"error\":\"shutting_down\"}"),
        Response::Error(msg) => {
            out.push_str("{\"ok\":false,\"error\":\"bad_request\",\"message\":");
            write_escaped(&mut out, msg);
            out.push('}');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ShardCountersSnapshot;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            parse_request(r#"{"op":"insert","set":[3,1,2]}"#).unwrap(),
            WireRequest::Call {
                req: Request::Insert {
                    elems: vec![3, 1, 2]
                }
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"query","set":[7],"deadline_ms":250}"#).unwrap(),
            WireRequest::Call {
                req: Request::Query { elems: vec![7] }
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"remove","id":42}"#).unwrap(),
            WireRequest::Call {
                req: Request::Remove { id: 42 }
            }
        );
        assert!(matches!(
            parse_request(r#"{"op":"query_insert","set":[]}"#).unwrap(),
            WireRequest::Call {
                req: Request::QueryInsert { .. },
                ..
            }
        ));
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            WireRequest::Call {
                req: Request::Stats
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"compact"}"#).unwrap(),
            WireRequest::Call {
                req: Request::Compact
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"tail","from_seq":17}"#).unwrap(),
            WireRequest::Call {
                req: Request::Tail { from_seq: 17 }
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"snap_fetch"}"#).unwrap(),
            WireRequest::Call {
                req: Request::SnapFetch
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            WireRequest::Shutdown
        );
    }

    #[test]
    fn hex_envelope_round_trips() {
        for bytes in [
            vec![],
            vec![0u8],
            vec![0xde, 0xad, 0x0f, 0x5e],
            (0..=255).collect(),
        ] {
            let mut s = String::new();
            write_hex(&mut s, &bytes);
            assert!(s.starts_with('"') && s.ends_with('"'));
            assert_eq!(parse_hex(&s[1..s.len() - 1]).unwrap(), bytes);
        }
        assert!(parse_hex("abc").is_err());
        assert!(parse_hex("zz").is_err());
    }

    #[test]
    fn tail_and_snapshot_responses_encode() {
        let line = encode_response(&Response::WalTail {
            from_seq: 3,
            frames: Some(vec![0xab, 0x01]),
        });
        assert_eq!(
            line,
            r#"{"ok":true,"op":"tail","from_seq":3,"frames":"ab01"}"#
        );
        let line = encode_response(&Response::WalTail {
            from_seq: 3,
            frames: None,
        });
        assert_eq!(
            line,
            r#"{"ok":true,"op":"tail","from_seq":3,"truncated":true}"#
        );
        let line = encode_response(&Response::Snapshots {
            seq: 9,
            shards: vec![vec![0x01], vec![0x02, 0x03]],
        });
        assert_eq!(
            line,
            r#"{"ok":true,"op":"snap_fetch","seq":9,"shards":["01","0203"]}"#
        );
        for resp in [
            Response::WalTail {
                from_seq: 0,
                frames: Some(Vec::new()),
            },
            Response::Snapshots {
                seq: 0,
                shards: Vec::new(),
            },
        ] {
            let line = encode_response(&resp);
            assert!(ssj_io::json::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[]").is_err());
        assert!(parse_request(r#"{"set":[1]}"#).is_err());
        assert!(parse_request(r#"{"op":"warp"}"#).is_err());
        assert!(parse_request(r#"{"op":"insert"}"#).is_err());
        assert!(parse_request(r#"{"op":"insert","set":[4294967296]}"#).is_err());
        assert!(parse_request(r#"{"op":"remove","id":-1}"#).is_err());
        assert!(parse_request(r#"{"op":"remove"}"#).is_err());
    }

    #[test]
    fn responses_encode_as_parseable_json() {
        let cases = vec![
            Response::Inserted {
                id: 5,
                seq: 2,
                durable: None,
            },
            Response::Inserted {
                id: 5,
                seq: 2,
                durable: Some(3),
            },
            Response::Removed {
                found: true,
                seq: 3,
                durable: Some(4),
            },
            Response::Matches {
                ids: vec![1, 9],
                seen_seq: 4,
                probed: 17,
            },
            Response::QueryInserted {
                ids: vec![],
                id: 8,
                seq: 5,
                probed: 0,
                durable: None,
            },
            Response::Compacted {
                seq: 7,
                sets: 2,
                file: "/tmp/x/segment-0000000000000007.seg".into(),
            },
            Response::Overloaded,
            Response::ShuttingDown,
            Response::Error("bad \"stuff\"".into()),
        ];
        for resp in cases {
            let line = encode_response(&resp);
            let v = ssj_io::json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let obj = v.as_object().unwrap();
            assert!(obj.contains_key("ok"), "{line}");
        }
    }

    #[test]
    fn durable_seq_emitted_only_when_present() {
        let without = encode_response(&Response::Inserted {
            id: 5,
            seq: 2,
            durable: None,
        });
        assert_eq!(without, r#"{"ok":true,"op":"insert","id":5,"seq":2}"#);
        let with = encode_response(&Response::Inserted {
            id: 5,
            seq: 2,
            durable: Some(3),
        });
        assert_eq!(
            with,
            r#"{"ok":true,"op":"insert","id":5,"seq":2,"durable_seq":3}"#
        );
    }

    #[test]
    fn query_response_fields_round_trip() {
        let line = encode_response(&Response::Matches {
            ids: vec![3, 11],
            seen_seq: 9,
            probed: 2,
        });
        let v = ssj_io::json::parse(&line).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj["ok"], ssj_io::json::Value::Bool(true));
        let ids: Vec<u64> = obj["ids"]
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(ids, vec![3, 11]);
        assert_eq!(obj["seen_seq"].as_u64().unwrap(), 9);
    }

    #[test]
    fn stats_response_encodes() {
        let s = StatsSnapshot {
            live_sets: vec![2, 1],
            shards: vec![ShardCountersSnapshot::default(); 2],
            seq: 3,
            accepted: 5,
            overloaded: 1,
            timeouts: 0,
            service_time: HistogramSnapshot {
                buckets: vec![0; 4],
                count: 0,
                sum_micros: 0,
            },
        };
        let line = encode_response(&Response::Stats(s));
        let v = ssj_io::json::parse(&line).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj["seq"].as_u64().unwrap(), 3);
        assert_eq!(obj["overloaded"].as_u64().unwrap(), 1);
        assert_eq!(obj["live_sets"].as_array().unwrap().len(), 2);
    }
}
