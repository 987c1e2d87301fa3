//! On-disk spill partitions: `(signature, slot)` postings hash-ranged
//! into per-partition files. A slot is a set's position in the segment
//! stream (see [`crate::executor`]).
//!
//! Spill files are *transient* — they exist only for the duration of one
//! external join and are recomputed from the segment on any failure, so
//! unlike the WAL they are never fsynced. They still get the full frame
//! treatment (`ssj_io::frame`): each flushed batch is a CRC-checked
//! frame, and the reader treats a torn or corrupt frame as a hard error.
//! A WAL tolerates a damaged tail because that is the expected crash
//! artifact; a spill file is written and read within one process
//! lifetime, so damage means a real fault and silently dropping the
//! batch would drop candidate pairs — i.e. wrong join output.
//!
//! Files are named `part-<i>.spill.tmp`: the `tmp` extension means a
//! crash mid-spill leaves files that `ssj-store` recovery already sweeps
//! (`cargo xtask crashtest` pins this).

use ssj_core::hash::mix64;
use ssj_core::partners::SigRecord;
use ssj_core::signature::Signature;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, ErrorKind};
use std::path::{Path, PathBuf};

use ssj_io::frame::{write_frame, Frame, FrameReader};
use ssj_io::varint::{read_varint, write_varint};

/// File name of spill partition `part` (inside the spill directory).
pub fn partition_file_name(part: usize) -> String {
    // Spill partitions are transient scratch, deliberately named `*.tmp`
    // so the store-side sweep (`sweep_tmp_files` in `Store::open`) reclaims
    // them after a crashed join; the executor removes each partition after
    // processing.
    format!("part-{part}.spill.tmp")
}

/// The partition owning `sig` among `partitions` buckets.
///
/// Every occurrence of a signature routes to the same bucket — the
/// invariant the exactness argument rests on — and `mix64` spreads the
/// already-hashed signature space so bucket sizes stay balanced.
pub fn partition_of(sig: Signature, partitions: usize) -> usize {
    (mix64(sig) % partitions as u64) as usize
}

/// Largest encoding of one posting: a 10-byte `u64` varint signature
/// plus a 5-byte `u32` varint slot.
const MAX_POSTING_BYTES: usize = 15;

/// Bytes each partition's batch buffer holds when flushing at
/// `batch_bytes`. A batch is flushed as soon as it reaches `batch_bytes`,
/// so before a push it holds at most `batch_bytes − 1` bytes and after it
/// at most `batch_bytes + 14`: the buffer is allocated once at this size
/// and never grows, and the executor charges exactly this per partition.
pub fn spill_batch_capacity(batch_bytes: usize) -> usize {
    batch_bytes + MAX_POSTING_BYTES
}

struct PartWriter {
    file: File,
    batch: Vec<u8>,
    records: u64,
    bytes: u64,
}

/// Batched writer over all spill partitions of one join.
pub struct SpillWriter {
    parts: Vec<PartWriter>,
    batch_bytes: usize,
}

impl SpillWriter {
    /// Creates `partitions` spill files under `dir`, flushing each
    /// partition's buffer once it reaches `batch_bytes`. Each buffer is
    /// allocated up front at [`spill_batch_capacity`]`(batch_bytes)`.
    pub fn create_at(dir: &Path, partitions: usize, batch_bytes: usize) -> io::Result<Self> {
        let mut parts = Vec::with_capacity(partitions);
        for i in 0..partitions {
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(dir.join(partition_file_name(i)))?;
            parts.push(PartWriter {
                file,
                batch: Vec::with_capacity(spill_batch_capacity(batch_bytes)),
                records: 0,
                bytes: 0,
            });
        }
        Ok(Self { parts, batch_bytes })
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Appends one `(sig, slot)` posting to partition `part`.
    pub fn push(&mut self, part: usize, sig: Signature, slot: u32) -> io::Result<()> {
        let p = &mut self.parts[part];
        write_varint(&mut p.batch, sig)?;
        write_varint(&mut p.batch, u64::from(slot))?;
        p.records += 1;
        if p.batch.len() >= self.batch_bytes {
            let written = write_frame(&mut p.file, &p.batch)?;
            p.bytes += written as u64;
            p.batch.clear();
        }
        Ok(())
    }

    /// Flushes every partial batch; returns the records of each partition
    /// and the total file bytes. No fsync — spill data is recomputed, not
    /// recovered.
    pub fn seal(mut self) -> io::Result<(Vec<u64>, u64)> {
        let mut bytes = 0;
        for p in &mut self.parts {
            if !p.batch.is_empty() {
                let written = write_frame(&mut p.file, &p.batch)?;
                p.bytes += written as u64;
                p.batch.clear();
            }
            bytes += p.bytes;
        }
        Ok((self.parts.iter().map(|p| p.records).collect(), bytes))
    }
}

/// Appends one partition file's postings to `records`, in file order, and
/// returns `(records, file_bytes)`. Torn or corrupt frames are hard
/// errors — see the module docs for why spill damage must never be
/// tolerated.
pub fn read_partition(path: &Path, records: &mut Vec<SigRecord>) -> io::Result<(u64, u64)> {
    let file = File::open(path)?;
    let mut reader = FrameReader::new(BufReader::new(file));
    let mut read = 0u64;
    loop {
        match reader.next_frame()? {
            Frame::Payload(batch) => {
                let mut cur = batch.as_slice();
                while !cur.is_empty() {
                    let sig = read_varint(&mut cur)?;
                    let slot = read_varint(&mut cur)?;
                    let slot = u32::try_from(slot).map_err(|_| {
                        io::Error::new(ErrorKind::InvalidData, "spill posting slot overflows u32")
                    })?;
                    records.push((sig, slot));
                    read += 1;
                }
            }
            Frame::CleanEof => break,
            Frame::Torn { offset } => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("spill file {} torn at offset {offset}", path.display()),
                ))
            }
            Frame::Corrupt { offset, reason } => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "spill file {} corrupt at offset {offset}: {reason}",
                        path.display()
                    ),
                ))
            }
        }
    }
    Ok((read, reader.valid_prefix()))
}

/// Removes the spill files `SpillWriter::create_at` made under `dir`, then
/// the directory itself if now empty. Best-effort: a vanished file is
/// fine, and a non-empty directory (foreign files) is left alone.
pub fn remove_partitions(dir: &Path, partitions: usize) -> io::Result<()> {
    for i in 0..partitions {
        let path: PathBuf = dir.join(partition_file_name(i));
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    let _ = std::fs::remove_dir(dir);
    Ok(())
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests tear a raw file")]
mod tests {
    use super::*;

    #[test]
    fn spill_roundtrip_preserves_every_posting() {
        let dir = std::env::temp_dir().join(format!("ssj_spill_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let parts = 3;
        let mut w = SpillWriter::create_at(&dir, parts, 64).unwrap();
        let postings: Vec<(Signature, u32)> = (0..500u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i % 97) as u32))
            .collect();
        let mut expected: Vec<Vec<(Signature, u32)>> = vec![Vec::new(); parts];
        for &(sig, id) in &postings {
            let p = partition_of(sig, parts);
            w.push(p, sig, id).unwrap();
            expected[p].push((sig, id));
        }
        let (records, bytes) = w.seal().unwrap();
        let counts: Vec<u64> = expected.iter().map(|e| e.len() as u64).collect();
        assert_eq!(records, counts);
        assert_eq!(records.iter().sum::<u64>(), postings.len() as u64);
        assert!(bytes > 0);

        let mut got = Vec::new();
        for (p, exp) in expected.iter().enumerate() {
            got.clear();
            let (n, _) = read_partition(&dir.join(partition_file_name(p)), &mut got).unwrap();
            assert_eq!(n, exp.len() as u64);
            assert_eq!(&got, exp, "a partition reads back in push order");
        }
        remove_partitions(&dir, parts).unwrap();
        assert!(!dir.exists(), "spill dir should be removed when empty");
    }

    #[test]
    fn batch_buffers_never_outgrow_their_charge() {
        let dir = std::env::temp_dir().join(format!("ssj_spill_cap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (parts, batch_bytes) = (2, 100);
        let charge = spill_batch_capacity(batch_bytes);
        let mut w = SpillWriter::create_at(&dir, parts, batch_bytes).unwrap();
        let mut flushes = 0;
        for i in 0..2_000u64 {
            // Widest postings: a 10-byte signature and a 5-byte slot, so the
            // push that crosses the threshold overshoots it the most.
            let part = (i % parts as u64) as usize;
            let before = w.parts[part].bytes;
            w.push(part, u64::MAX - i, u32::MAX - i as u32).unwrap();
            flushes += usize::from(w.parts[part].bytes != before);
            for p in &w.parts {
                assert!(
                    p.batch.capacity() <= charge,
                    "batch grew to {} bytes against a {charge}-byte charge",
                    p.batch.capacity()
                );
            }
        }
        assert!(flushes > 10, "the test must push through several flushes");
        w.seal().unwrap();
        remove_partitions(&dir, parts).unwrap();
    }

    #[test]
    fn torn_spill_file_is_a_hard_error() {
        let dir = std::env::temp_dir().join(format!("ssj_spill_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SpillWriter::create_at(&dir, 1, 8).unwrap();
        for i in 0..50u64 {
            w.push(0, i * 7 + 1, i as u32).unwrap();
        }
        w.seal().unwrap();
        let path = dir.join(partition_file_name(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let mut records = Vec::new();
        let err = read_partition(&path, &mut records).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        remove_partitions(&dir, 1).unwrap();
    }
}
