//! Checksummed, varint-framed records — the WAL's on-disk unit.
//!
//! One frame is `[len varint][payload][crc32 LE]` where the CRC covers the
//! length bytes *and* the payload, so a bit flip anywhere in the frame —
//! including one that re-frames the record by changing its length — fails
//! verification. Reading distinguishes three non-frame outcomes:
//!
//! * **clean end** — EOF exactly on a frame boundary;
//! * **torn** — EOF inside a frame (a write was cut short by a crash);
//! * **corrupt** — the frame is complete but its checksum (or framing)
//!   is wrong.
//!
//! A torn or corrupt tail is the *expected* crash artifact: recovery keeps
//! the valid prefix and discards the rest. A corrupt frame is never
//! returned as a payload — the checksum gate means trailing garbage is
//! detected, not silently decoded.

use crate::crc::{crc32, Crc32};
use crate::varint::write_varint;
use std::io::{self, ErrorKind, Read, Write};

/// Upper bound on a frame's payload length. Anything larger is treated as
/// corruption (a flipped bit in the length varint can claim absurd sizes;
/// the cap keeps the reader from allocating against it).
pub const MAX_FRAME_LEN: u64 = 1 << 30;

/// The outcome of reading one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// EOF exactly on a frame boundary: the log ends here cleanly.
    CleanEof,
    /// EOF inside a frame: a torn (partially written) final record.
    Torn {
        /// Byte offset where the torn frame starts.
        offset: u64,
    },
    /// A structurally complete frame that failed verification.
    Corrupt {
        /// Byte offset where the corrupt frame starts.
        offset: u64,
        /// What failed (checksum mismatch, oversized length, bad varint).
        reason: String,
    },
}

/// Encodes `value` as LEB128 into a stack buffer; returns the buffer and
/// the encoded length (≤ 10). Lets frame writing avoid a per-frame heap
/// allocation for the handful of length bytes.
fn varint_to_stack(value: u64) -> ([u8; 10], usize) {
    let mut buf = [0u8; 10];
    let mut cursor = &mut buf[..];
    // Writing to a fixed 10-byte slice cannot fail (10 bytes hold any u64
    // varint); fall back to the maximum length rather than panic in a
    // library crate.
    let used = match write_varint(&mut cursor, value) {
        Ok(()) => 10 - cursor.len(),
        Err(_) => 10,
    };
    (buf, used)
}

/// Appends one frame to `out`; returns the bytes written.
pub fn write_frame(out: &mut impl Write, payload: &[u8]) -> io::Result<usize> {
    let (len_buf, len_len) = varint_to_stack(payload.len() as u64);
    let len_bytes = &len_buf[..len_len];
    let mut crc = Crc32::new();
    crc.update(len_bytes);
    crc.update(payload);
    out.write_all(len_bytes)?;
    out.write_all(payload)?;
    out.write_all(&crc.finish().to_le_bytes())?;
    Ok(len_len + payload.len() + 4)
}

/// Sequentially decodes frames from a reader, reporting torn/corrupt tails
/// instead of erroring through them.
pub struct FrameReader<R> {
    input: R,
    /// Byte offset of the *next* frame (end of the last valid one).
    offset: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a reader positioned at a frame boundary.
    pub fn new(input: R) -> Self {
        Self { input, offset: 0 }
    }

    /// Byte offset just past the last successfully decoded frame — the
    /// length of the valid prefix once the log has been fully read.
    pub fn valid_prefix(&self) -> u64 {
        self.offset
    }

    /// Reads one byte; `Ok(None)` on EOF.
    fn read_byte(&mut self) -> io::Result<Option<u8>> {
        let mut b = [0u8; 1];
        loop {
            match self.input.read(&mut b) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(b[0])),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Decodes the next frame. `Err` is reserved for genuine I/O failures;
    /// torn and corrupt frames come back as [`Frame`] variants.
    pub fn next_frame(&mut self) -> io::Result<Frame> {
        let start = self.offset;
        // Length varint, byte by byte, keeping the raw bytes for the CRC.
        let mut len_bytes: Vec<u8> = Vec::with_capacity(5);
        let mut len: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = match self.read_byte()? {
                Some(b) => b,
                None if len_bytes.is_empty() => return Ok(Frame::CleanEof),
                None => return Ok(Frame::Torn { offset: start }),
            };
            len_bytes.push(b);
            if shift >= 63 && b > 1 {
                return Ok(Frame::Corrupt {
                    offset: start,
                    reason: "frame length varint overflows u64".into(),
                });
            }
            len |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 63 {
                return Ok(Frame::Corrupt {
                    offset: start,
                    reason: "frame length varint too long".into(),
                });
            }
        }
        if len > MAX_FRAME_LEN {
            return Ok(Frame::Corrupt {
                offset: start,
                reason: format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
            });
        }
        let mut payload = vec![0u8; len as usize];
        if let Err(e) = self.input.read_exact(&mut payload) {
            return if e.kind() == ErrorKind::UnexpectedEof {
                Ok(Frame::Torn { offset: start })
            } else {
                Err(e)
            };
        }
        let mut stored = [0u8; 4];
        if let Err(e) = self.input.read_exact(&mut stored) {
            return if e.kind() == ErrorKind::UnexpectedEof {
                Ok(Frame::Torn { offset: start })
            } else {
                Err(e)
            };
        }
        let mut crc = Crc32::new();
        crc.update(&len_bytes);
        crc.update(&payload);
        let computed = crc.finish();
        let stored = u32::from_le_bytes(stored);
        if computed != stored {
            return Ok(Frame::Corrupt {
                offset: start,
                reason: format!(
                    "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                ),
            });
        }
        self.offset = start + len_bytes.len() as u64 + len + 4;
        Ok(Frame::Payload(payload))
    }
}

/// Reads every frame of `bytes`, returning the decoded payloads plus how
/// the log ended. Convenience for tests and recovery over in-memory data.
pub fn read_all(bytes: &[u8]) -> (Vec<Vec<u8>>, Frame) {
    let mut reader = FrameReader::new(bytes);
    let mut payloads = Vec::new();
    loop {
        // In-memory reads cannot fail with a real I/O error.
        match reader.next_frame() {
            Ok(Frame::Payload(p)) => payloads.push(p),
            Ok(end) => return (payloads, end),
            Err(e) => {
                return (
                    payloads,
                    Frame::Corrupt {
                        offset: reader.valid_prefix(),
                        reason: format!("i/o error: {e}"),
                    },
                )
            }
        }
    }
}

/// Decodes `bytes` as **exactly one** frame, with every non-frame outcome
/// — torn, corrupt, empty, or trailing garbage — a hard `InvalidData`
/// error.
///
/// The WAL reader tolerates a damaged tail because that is the expected
/// crash artifact of an append-only log; a read-only artifact written
/// atomically (a segment footer or block) has no such excuse, so any
/// deviation is corruption and must fail loudly rather than degrade into
/// a shorter — silently wrong — answer.
pub fn read_single(bytes: &[u8]) -> io::Result<Vec<u8>> {
    let mut reader = FrameReader::new(bytes);
    let payload = match reader.next_frame()? {
        Frame::Payload(p) => p,
        Frame::CleanEof => {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "expected one frame, found none",
            ))
        }
        Frame::Torn { offset } => {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("frame torn at offset {offset}"),
            ))
        }
        Frame::Corrupt { offset, reason } => {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("frame corrupt at offset {offset}: {reason}"),
            ))
        }
    };
    match reader.next_frame()? {
        Frame::CleanEof => Ok(payload),
        _ => Err(io::Error::new(
            ErrorKind::InvalidData,
            "trailing bytes after the single expected frame",
        )),
    }
}

/// Sanity digest for whole-file verification (snapshot trailer).
pub fn checksum(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], vec![0xFF; 300], b"hello".to_vec()];
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let (decoded, end) = read_all(&buf);
        assert_eq!(decoded, payloads);
        assert_eq!(end, Frame::CleanEof);
    }

    #[test]
    fn write_frame_returns_the_bytes_written() {
        for len in [0usize, 1, 127, 128, 300, 20_000] {
            let mut buf = Vec::new();
            let n = write_frame(&mut buf, &vec![7u8; len]).unwrap();
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn truncation_yields_prefix_plus_torn() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        let first_end = buf.len();
        write_frame(&mut buf, b"second record").unwrap();
        for cut in first_end + 1..buf.len() {
            let (decoded, end) = read_all(&buf[..cut]);
            assert_eq!(decoded, vec![b"first".to_vec()], "cut at {cut}");
            assert_eq!(
                end,
                Frame::Torn {
                    offset: first_end as u64
                },
                "cut at {cut}"
            );
        }
        // Cutting exactly on the boundary is a clean, shorter log.
        let (decoded, end) = read_all(&buf[..first_end]);
        assert_eq!(decoded, vec![b"first".to_vec()]);
        assert_eq!(end, Frame::CleanEof);
    }

    #[test]
    fn corrupt_frame_is_reported_not_decoded() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01; // flip a checksum bit
        let (decoded, end) = read_all(&buf);
        assert!(decoded.is_empty());
        assert!(matches!(end, Frame::Corrupt { offset: 0, .. }), "{end:?}");
    }

    #[test]
    fn read_single_accepts_exactly_one_clean_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"only").unwrap();
        assert_eq!(read_single(&buf).unwrap(), b"only");
        // Empty input, trailing bytes, truncation, and corruption are all
        // hard errors — never a silently shorter answer.
        assert!(read_single(&[]).is_err());
        let mut two = buf.clone();
        write_frame(&mut two, b"second").unwrap();
        assert!(read_single(&two).is_err());
        assert!(read_single(&buf[..buf.len() - 1]).is_err());
        let mut flipped = buf.clone();
        flipped[2] ^= 0x40;
        assert!(read_single(&flipped).is_err());
    }

    #[test]
    fn oversized_length_is_corrupt() {
        let mut buf = Vec::new();
        crate::varint::write_varint(&mut buf, MAX_FRAME_LEN + 1).unwrap();
        buf.extend_from_slice(&[0u8; 8]);
        let (decoded, end) = read_all(&buf);
        assert!(decoded.is_empty());
        assert!(matches!(end, Frame::Corrupt { .. }), "{end:?}");
    }
}
