//! Snapshot and meta files: checksummed images published by atomic
//! rename-into-place.
//!
//! `meta` pins the store's configuration (shard count, seed, γ, initial
//! scheme size) so a data directory cannot silently be reopened under a
//! different topology — routing and id encoding depend on all four.
//!
//! `shard-<i>.snap` is a compacted image of one shard at a global sequence
//! watermark `S`, stored as a [`segment`](crate::segment) whose footer
//! stamp carries `(i, shard_count, S, next_id)`: only live entries are
//! written (tombstones become holes below `next_id`), so delete-heavy
//! shards shrink on every snapshot. The writer streams the image block by
//! block through `ssj_io::fs::publish_durable` (tmp write, fsync, rename over
//! the live name, directory fsync) — a crash leaves either the old
//! complete file or the new complete file, never a torn one, and stray
//! `.tmp` files are cleaned up on recovery. Recovery reads the image back
//! block by block. An image shipped to a replica is the same bytes built
//! in memory ([`ShardState::to_image`]) and is checked by the same decoder
//! ([`ShardState::from_image`]) before it is restored or published.

use crate::segment::{stream_segment, write_segment, Segment, SegmentBlock, SegmentStamp};
use crate::StoreConfig;
use ssj_io::crc::crc32;
use ssj_io::fs::atomic_write_durable;
use ssj_io::varint::write_varint;
use std::fs::{self, File};
use std::io::{self, Read, Seek};
use std::path::{Path, PathBuf};

/// Meta file magic + format version.
const META_MAGIC: [u8; 5] = *b"SSJM\x01";

/// The logical state of one shard, as persisted and recovered: the next
/// stable id it would issue plus every live `(id, canonical set)` entry,
/// ascending by id. Mirrors `JaccardIndex::dump_live`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardState {
    /// Next shard-local stable id (ids below it missing from `live` are
    /// tombstones).
    pub next_id: u32,
    /// Live entries, strictly ascending by id.
    pub live: Vec<(u32, Vec<u32>)>,
}

impl ShardState {
    fn stamp(&self, shard: usize, shard_count: usize, seq: u64) -> SegmentStamp {
        SegmentStamp {
            shard: shard as u64,
            shard_count: shard_count as u64,
            seq,
            next_id: u64::from(self.next_id),
        }
    }

    fn sets(&self) -> impl Iterator<Item = (u64, &[u32])> {
        self.live
            .iter()
            .map(|(id, set)| (u64::from(*id), set.as_slice()))
    }

    /// Shard `shard`'s snapshot image at watermark `seq`, byte-identical
    /// to the `shard-<shard>.snap` file the owner writes for this state —
    /// what snapshot shipping sends.
    pub fn to_image(&self, shard: usize, shard_count: usize, seq: u64) -> io::Result<Vec<u8>> {
        let stamp = self.stamp(shard, shard_count, seq);
        Ok(stream_segment(Vec::new(), 0, stamp, self.sets())?.0)
    }

    /// Verifies and decodes a shipped image (the raw bytes of a
    /// `shard-<i>.snap` file) with the decoder recovery uses. Returns the
    /// watermark and state. Corruption, truncation, and shard/topology
    /// mismatches are always detected.
    pub fn from_image(bytes: &[u8], shard: usize, shard_count: usize) -> io::Result<(u64, Self)> {
        let mut seg = Segment::open(io::Cursor::new(bytes))?;
        check_stamp(&seg, shard, shard_count)?;
        Self::read_segment(&mut seg)
    }

    /// Reads a shard's state back from its snapshot segment, block by
    /// block. The caller has checked the stamp names the right shard.
    fn read_segment<R: Read + Seek>(seg: &mut Segment<R>) -> io::Result<(u64, Self)> {
        let stamp = seg.stamp();
        let next_id =
            u32::try_from(stamp.next_id).map_err(|_| invalid("next_id exceeds the u32 domain"))?;
        let mut live = Vec::with_capacity(seg.total_sets().min(1 << 20) as usize);
        let mut block = SegmentBlock::default();
        for idx in 0..seg.blocks().len() {
            seg.read_block(idx, &mut block)?;
            for i in 0..block.len() {
                // The decoder checked every id against next_id.
                let id = u32::try_from(block.id(i)).map_err(|_| invalid("id overflows u32"))?;
                live.push((id, block.set(i).to_vec()));
            }
        }
        Ok((stamp.seq, Self { next_id, live }))
    }
}

/// Refuses `seg` unless its stamp names shard `shard` of `shard_count`.
fn check_stamp<R: Read + Seek>(
    seg: &Segment<R>,
    shard: usize,
    shard_count: usize,
) -> io::Result<()> {
    let stamp = seg.stamp();
    if stamp.shard != shard as u64 || stamp.shard_count != shard_count as u64 {
        return Err(invalid(format!(
            "snapshot is for shard {}/{}, expected {shard}/{shard_count}",
            stamp.shard, stamp.shard_count
        )));
    }
    Ok(())
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Path of shard `i`'s snapshot.
pub(crate) fn snap_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.snap"))
}

/// Path of the config meta file.
pub(crate) fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta")
}

fn meta_bytes(cfg: &StoreConfig) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&META_MAGIC);
    write_varint(&mut out, cfg.shards as u64)?;
    write_varint(&mut out, cfg.seed)?;
    write_varint(&mut out, cfg.gamma.to_bits())?;
    write_varint(&mut out, cfg.initial_max_size as u64)?;
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Validates an existing meta file against `cfg`, or writes one if the
/// directory is fresh. A config mismatch is a hard error: reopening a data
/// directory under a different topology would scramble routing and ids.
pub(crate) fn read_or_init_meta(dir: &Path, cfg: &StoreConfig) -> io::Result<()> {
    let path = meta_path(dir);
    let expected = meta_bytes(cfg)?;
    #[expect(clippy::disallowed_methods, reason = "compared byte for byte")]
    let read = fs::read(&path);
    match read {
        Ok(found) => {
            if found == expected {
                return Ok(());
            }
            // Distinguish corruption from an honest config mismatch.
            if found.len() < META_MAGIC.len() + 4 || found[..META_MAGIC.len()] != META_MAGIC || {
                let (body, tail) = found.split_at(found.len() - 4);
                crc32(body).to_le_bytes() != *tail
            } {
                return Err(invalid("store meta file is corrupt"));
            }
            Err(invalid(
                "store config does not match this data directory \
                 (shards/seed/gamma/initial_max_size differ)",
            ))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => atomic_write_durable(&path, &expected),
        Err(e) => Err(e),
    }
}

/// Writes shard `shard`'s snapshot at watermark `seq`, streaming it block
/// by block, atomically and durably (the publisher fsyncs the file *and*
/// the directory — the caller owes nothing; the `ssj_io::fswitness`
/// witness checks both fsyncs at run time).
pub(crate) fn write_snapshot(
    dir: &Path,
    cfg: &StoreConfig,
    shard: usize,
    seq: u64,
    state: &ShardState,
) -> io::Result<()> {
    let stamp = state.stamp(shard, cfg.shards, seq);
    write_segment(&snap_path(dir, shard), 0, stamp, state.sets()).map(drop)
}

/// Persists a shipped snapshot image into `dir` under its live
/// `shard-<i>.snap` name, with the same atomic publish the owner's own
/// snapshots use. The image is checked by the recovery decoder (checksums,
/// shard, topology) before any byte lands on disk; a crash mid-ship leaves
/// at most a stray `*.tmp`, which recovery sweeps.
pub fn persist_shipped_snapshot(
    dir: &Path,
    shard: usize,
    shard_count: usize,
    bytes: &[u8],
) -> io::Result<()> {
    ShardState::from_image(bytes, shard, shard_count)?;
    fs::create_dir_all(dir)?;
    atomic_write_durable(&snap_path(dir, shard), bytes)
}

/// Opens shard `shard`'s snapshot segment: `None` if the file does not
/// exist, an error naming the file if it exists but fails structural
/// verification or is stamped for a different shard/topology.
pub(crate) fn open_snapshot(
    dir: &Path,
    shard: usize,
    shard_count: usize,
) -> io::Result<Option<Segment>> {
    let path = snap_path(dir, shard);
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let seg = Segment::open(file)
        .and_then(|seg| check_stamp(&seg, shard, shard_count).map(|()| seg))
        .map_err(|e| naming(&path, e))?;
    Ok(Some(seg))
}

/// Loads shard `shard`'s snapshot: `None` if the file does not exist, an
/// error naming the file if it exists but fails verification (truncated,
/// bad checksum, an older format, or written for a different
/// shard/topology). Corruption is always *detected*, never decoded into
/// wrong state.
pub(crate) fn load_snapshot(
    dir: &Path,
    cfg: &StoreConfig,
    shard: usize,
) -> io::Result<Option<(u64, ShardState)>> {
    let Some(mut seg) = open_snapshot(dir, shard, cfg.shards)? else {
        return Ok(None);
    };
    ShardState::read_segment(&mut seg)
        .map(Some)
        .map_err(|e| naming(&snap_path(dir, shard), e))
}

/// `e` with the offending file's path in front.
fn naming(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests plant raw files")]
mod tests {
    use super::*;
    use crate::SyncMode;

    fn cfg(shards: usize) -> StoreConfig {
        StoreConfig {
            shards,
            seed: 42,
            gamma: 0.8,
            initial_max_size: 64,
            sync: SyncMode::Every,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssj-store-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_roundtrip() {
        let dir = tmpdir("roundtrip");
        let state = ShardState {
            next_id: 5,
            live: vec![(0, vec![1, 2, 3]), (2, vec![]), (4, vec![10, 20])],
        };
        write_snapshot(&dir, &cfg(3), 1, 99, &state).unwrap();
        let (seq, back) = load_snapshot(&dir, &cfg(3), 1).unwrap().unwrap();
        assert_eq!(seq, 99);
        assert_eq!(back, state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = tmpdir("missing");
        assert!(load_snapshot(&dir, &cfg(2), 0).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn older_images_are_typed_errors_naming_the_file() {
        let dir = tmpdir("legacy");
        // An image of the retired v1 snapshot codec (magic "S S J S 1",
        // header, one entry, crc) and a v1 segment: no reader is kept for
        // either.
        let v1_snap = b"\x53\x53\x4a\x53\x01\x00\x01\x05\x01\x01\x00\x01\x07\xde\xad\xbe\xef";
        let mut ssje_v1 = fs::read(write_v2(&dir)).unwrap();
        ssje_v1[4] = 1;
        for old in [&v1_snap[..], &ssje_v1[..]] {
            fs::write(snap_path(&dir, 0), old).unwrap();
            // Not a silently empty shard: the store refuses to open.
            let err = crate::Store::open(&dir, cfg(1)).err().unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("shard-0.snap") && msg.contains("magic"),
                "{msg}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a one-set v2 snapshot for shard 0 of 1 and returns its path.
    fn write_v2(dir: &Path) -> PathBuf {
        let state = ShardState {
            next_id: 1,
            live: vec![(0, vec![7])],
        };
        write_snapshot(dir, &cfg(1), 0, 5, &state).unwrap();
        snap_path(dir, 0)
    }

    #[test]
    fn wrong_topology_rejected() {
        let dir = tmpdir("topology");
        write_snapshot(&dir, &cfg(2), 0, 0, &ShardState::default()).unwrap();
        // Same file read back expecting 3 shards: refused.
        assert!(load_snapshot(&dir, &cfg(3), 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_pins_config() {
        let dir = tmpdir("meta");
        read_or_init_meta(&dir, &cfg(2)).unwrap();
        // Same config: fine. Different shards: refused.
        read_or_init_meta(&dir, &cfg(2)).unwrap();
        assert!(read_or_init_meta(&dir, &cfg(3)).is_err());
        let mut other = cfg(2);
        other.gamma = 0.9;
        assert!(read_or_init_meta(&dir, &other).is_err());
        // Sync mode is runtime policy, not topology: not pinned.
        let mut relaxed = cfg(2);
        relaxed.sync = SyncMode::Never;
        read_or_init_meta(&dir, &relaxed).unwrap();
        // Corrupt meta: detected as corruption.
        let path = meta_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = read_or_init_meta(&dir, &cfg(2)).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
