//! WAL record payloads: the logical operations framed by
//! [`ssj_io::frame`] into `wal.log`.
//!
//! A record is one durably-logged write, tagged with the global write
//! sequence number the serving layer assigned it:
//!
//! ```text
//! insert:  [0x01][varint seq][varint shard][varint len][delta-coded set]
//! remove:  [0x02][varint seq][varint shard][varint local-id]
//! ```
//!
//! Sets are canonical (strictly sorted, deduplicated), so elements are
//! delta-coded exactly like the `ssj-io` collection format: first element
//! absolute, every later one as `delta − 1`. Decoding therefore cannot
//! produce a non-canonical set — a frame that passes its CRC but decodes
//! out of order is impossible by construction.

use ssj_io::varint::{read_varint, write_varint};
use std::io::{self, Read};

/// Insert record tag.
const OP_INSERT: u8 = 1;
/// Remove (tombstone) record tag.
const OP_REMOVE: u8 = 2;

/// A logical write, without its sequence tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A set was indexed on `shard`. Replaying inserts in per-shard log
    /// order reassigns the same shard-local ids the live index issued.
    Insert {
        /// Owning shard index.
        shard: u32,
        /// The canonical (sorted, deduplicated) set.
        set: Vec<u32>,
    },
    /// A shard-local id was tombstoned on `shard` (possibly a no-op if the
    /// id was already dead — replay is idempotent either way).
    Remove {
        /// Owning shard index.
        shard: u32,
        /// Shard-local stable id.
        local: u32,
    },
}

impl WalOp {
    /// The shard this operation belongs to.
    pub fn shard(&self) -> u32 {
        match self {
            WalOp::Insert { shard, .. } | WalOp::Remove { shard, .. } => *shard,
        }
    }
}

/// One decoded WAL record: a logical write plus its global sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global write-sequence number assigned by the serving layer.
    pub seq: u64,
    /// The logical operation.
    pub op: WalOp,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes a canonical set as `[varint len][delta-coded elements]`.
pub(crate) fn encode_set(out: &mut Vec<u8>, set: &[u32]) -> io::Result<()> {
    write_varint(out, set.len() as u64)?;
    let mut prev = 0u64;
    for (i, &e) in set.iter().enumerate() {
        let e = u64::from(e);
        if i == 0 {
            write_varint(out, e)?;
        } else {
            if e <= prev {
                return Err(invalid("set not strictly sorted; canonicalize first"));
            }
            write_varint(out, e - prev - 1)?;
        }
        prev = e;
    }
    Ok(())
}

/// Reads a set written by [`encode_set`]; always canonical on success.
pub(crate) fn decode_set(input: &mut impl Read) -> io::Result<Vec<u32>> {
    let len = read_varint(input)?;
    if len > u64::from(u32::MAX) {
        return Err(invalid("set length exceeds the u32 domain"));
    }
    let mut set = Vec::with_capacity(len as usize);
    let mut prev = 0u64;
    for i in 0..len {
        let delta = read_varint(input)?;
        let e = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .and_then(|v| v.checked_add(1))
                .ok_or_else(|| invalid("set element delta overflows"))?
        };
        if e > u64::from(u32::MAX) {
            return Err(invalid("set element exceeds the u32 domain"));
        }
        set.push(e as u32);
        prev = e;
    }
    Ok(set)
}

/// Encodes a record payload into the caller-provided buffer (cleared
/// first; to be framed by `ssj_io::frame::write_frame`). The append path
/// reuses one buffer per WAL, so steady-state writes don't allocate a
/// fresh payload vector per record.
pub fn encode_record_into(record: &WalRecord, out: &mut Vec<u8>) -> io::Result<()> {
    out.clear();
    match &record.op {
        WalOp::Insert { shard, set } => {
            out.push(OP_INSERT);
            write_varint(out, record.seq)?;
            write_varint(out, u64::from(*shard))?;
            encode_set(out, set)?;
        }
        WalOp::Remove { shard, local } => {
            out.push(OP_REMOVE);
            write_varint(out, record.seq)?;
            write_varint(out, u64::from(*shard))?;
            write_varint(out, u64::from(*local))?;
        }
    }
    Ok(())
}

/// Decodes a record payload. Fails with `InvalidData` on anything a valid
/// writer could not have produced (unknown op tag, out-of-domain ids,
/// trailing bytes) — a CRC-valid frame that does not decode is corruption
/// or a version break, never silently tolerated.
pub fn decode_record(payload: &[u8]) -> io::Result<WalRecord> {
    let mut input = payload;
    let mut tag = [0u8; 1];
    input.read_exact(&mut tag)?;
    let seq = read_varint(&mut input)?;
    let shard = read_varint(&mut input)?;
    if shard > u64::from(u32::MAX) {
        return Err(invalid("shard index exceeds the u32 domain"));
    }
    let shard = shard as u32;
    let op = match tag[0] {
        OP_INSERT => WalOp::Insert {
            shard,
            set: decode_set(&mut input)?,
        },
        OP_REMOVE => {
            let local = read_varint(&mut input)?;
            if local > u64::from(u32::MAX) {
                return Err(invalid("local id exceeds the u32 domain"));
            }
            WalOp::Remove {
                shard,
                local: local as u32,
            }
        }
        other => return Err(invalid(format!("unknown WAL op tag {other:#04x}"))),
    };
    if !input.is_empty() {
        return Err(invalid(format!(
            "{} trailing bytes after WAL record",
            input.len()
        )));
    }
    Ok(WalRecord { seq, op })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(record: &WalRecord) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_record_into(record, &mut bytes).unwrap();
        bytes
    }

    fn roundtrip(record: WalRecord) {
        let bytes = encode(&record);
        assert_eq!(decode_record(&bytes).unwrap(), record);
    }

    #[test]
    fn insert_roundtrips() {
        roundtrip(WalRecord {
            seq: 0,
            op: WalOp::Insert {
                shard: 0,
                set: vec![],
            },
        });
        roundtrip(WalRecord {
            seq: u64::MAX,
            op: WalOp::Insert {
                shard: 1000,
                set: vec![0, 1, 2, 127, 128, 1_000_000, u32::MAX],
            },
        });
    }

    #[test]
    fn remove_roundtrips() {
        roundtrip(WalRecord {
            seq: 42,
            op: WalOp::Remove {
                shard: 7,
                local: u32::MAX,
            },
        });
    }

    #[test]
    fn unknown_tag_rejected() {
        let record = WalRecord {
            seq: 1,
            op: WalOp::Remove { shard: 0, local: 0 },
        };
        let mut bytes = encode(&record);
        bytes[0] = 0x7F;
        assert!(decode_record(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let record = WalRecord {
            seq: 1,
            op: WalOp::Remove { shard: 0, local: 0 },
        };
        let mut bytes = encode(&record);
        bytes.push(0);
        assert!(decode_record(&bytes).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let record = WalRecord {
            seq: 300,
            op: WalOp::Insert {
                shard: 2,
                set: vec![10, 20, 30],
            },
        };
        let bytes = encode(&record);
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn non_canonical_set_rejected_at_encode() {
        let mut out = Vec::new();
        assert!(encode_set(&mut out, &[3, 3]).is_err());
        let mut out = Vec::new();
        assert!(encode_set(&mut out, &[5, 2]).is_err());
    }
}
