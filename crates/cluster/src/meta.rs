//! The versioned cluster topology, persisted as one CRC-framed record.
//!
//! `ClusterMeta` is to a cluster what the store's `meta` file is to a data
//! directory: it pins everything placement depends on — topology epoch,
//! node count, ring seed, and the explicit node → ring-range map (the
//! sorted points) — so two routers that load the same file make identical
//! routing decisions, and a stale router can detect it lost a topology
//! race by comparing epochs.
//!
//! On disk the record is `[len varint][payload][crc32 LE]` — exactly one
//! `ssj_io::frame` frame, so torn and corrupt files are *detected* by the
//! same machinery that guards the WAL, never half-decoded. The payload is
//! `[SSJT v1][varint epoch][varint seed][varint nodes][varint vnodes]
//! [varint point_count][points: pos delta-coded, node]`.

use crate::ring::{HashRing, RingPoint};
use ssj_io::frame::{write_frame, Frame, FrameReader};
use ssj_io::varint::{read_varint, write_varint};
use std::fs;
use std::io;
use std::path::Path;

/// Topology file magic + format version.
const META_MAGIC: [u8; 5] = *b"SSJT\x01";

/// File name of the persisted topology inside a cluster directory.
pub const META_FILE: &str = "cluster-meta";

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The versioned cluster topology: epoch plus the full placement input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMeta {
    /// Monotonic topology version: bumped on every membership change, so
    /// routers and replicas can detect stale placement.
    pub epoch: u64,
    /// Ring hash seed (also the master seed nodes derive theirs from).
    pub seed: u64,
    /// Number of nodes in the cluster.
    pub nodes: u32,
    /// Virtual points per node on the ring.
    pub vnodes: u32,
    /// The node → ring-range map: sorted ring points, each owning the arc
    /// that ends at its position.
    pub points: Vec<RingPoint>,
}

impl ClusterMeta {
    /// Builds the epoch-0 topology for `nodes` nodes: derives the ring
    /// points from `(seed, nodes, vnodes)`.
    pub fn bootstrap(nodes: u32, vnodes: u32, seed: u64) -> Self {
        let ring = HashRing::new(nodes, vnodes, seed);
        Self {
            epoch: 0,
            seed,
            nodes: nodes.max(1),
            vnodes: vnodes.max(1),
            points: ring.points().to_vec(),
        }
    }

    /// The placement this topology describes.
    pub fn ring(&self) -> Result<HashRing, String> {
        HashRing::from_points(self.points.clone(), self.nodes, self.seed)
    }

    /// Encodes the topology as one framed, checksummed record.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut payload = Vec::with_capacity(32 + self.points.len() * 4);
        payload.extend_from_slice(&META_MAGIC);
        write_varint(&mut payload, self.epoch)?;
        write_varint(&mut payload, self.seed)?;
        write_varint(&mut payload, u64::from(self.nodes))?;
        write_varint(&mut payload, u64::from(self.vnodes))?;
        write_varint(&mut payload, self.points.len() as u64)?;
        let mut prev = 0u64;
        for &(pos, node) in &self.points {
            if pos < prev {
                return Err(invalid("ring points must be ascending"));
            }
            write_varint(&mut payload, pos - prev)?;
            write_varint(&mut payload, u64::from(node))?;
            prev = pos;
        }
        let mut out = Vec::with_capacity(payload.len() + 16);
        write_frame(&mut out, &payload)?;
        Ok(out)
    }

    /// Decodes a record written by [`ClusterMeta::encode`]. Torn, corrupt,
    /// or trailing-garbage files are refused.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        let mut reader = FrameReader::new(bytes);
        let payload = match reader.next_frame()? {
            Frame::Payload(p) => p,
            Frame::CleanEof => return Err(invalid("empty cluster meta")),
            Frame::Torn { .. } => return Err(invalid("torn cluster meta")),
            Frame::Corrupt { .. } => return Err(invalid("corrupt cluster meta")),
        };
        if reader.valid_prefix() != bytes.len() as u64 {
            match reader.next_frame()? {
                Frame::CleanEof => {}
                _ => return Err(invalid("trailing bytes after cluster meta")),
            }
            if reader.valid_prefix() != bytes.len() as u64 {
                return Err(invalid("trailing bytes after cluster meta"));
            }
        }
        if payload.len() < META_MAGIC.len() || payload[..META_MAGIC.len()] != META_MAGIC {
            return Err(invalid("bad cluster meta magic/version"));
        }
        let mut input = &payload[META_MAGIC.len()..];
        let epoch = read_varint(&mut input)?;
        let seed = read_varint(&mut input)?;
        let nodes = read_varint(&mut input)?;
        let vnodes = read_varint(&mut input)?;
        if nodes == 0 || nodes > u64::from(u32::MAX) || vnodes == 0 || vnodes > u64::from(u32::MAX)
        {
            return Err(invalid("cluster meta node/vnode count out of range"));
        }
        let count = read_varint(&mut input)?;
        let mut points = Vec::with_capacity(count.min(1 << 20) as usize);
        let mut prev = 0u64;
        for _ in 0..count {
            let delta = read_varint(&mut input)?;
            let pos = prev
                .checked_add(delta)
                .ok_or_else(|| invalid("ring point position overflows the u64 circle"))?;
            let node = read_varint(&mut input)?;
            if node >= nodes {
                return Err(invalid(format!("ring point names node {node} of {nodes}")));
            }
            points.push((pos, node as u32));
            prev = pos;
        }
        if !input.is_empty() {
            return Err(invalid("trailing bytes inside cluster meta payload"));
        }
        Ok(Self {
            epoch,
            seed,
            nodes: nodes as u32,
            vnodes: vnodes as u32,
            points,
        })
    }

    /// Persists the topology atomically and durably (tmp write + fsync +
    /// rename + dir fsync, the same `ssj_io::fs::atomic_write_durable`
    /// protocol the store's snapshots use) as `cluster-meta` inside `dir`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let bytes = self.encode()?;
        ssj_io::fs::atomic_write_durable(&dir.join(META_FILE), &bytes)
    }

    /// Loads the topology persisted by [`ClusterMeta::save`]. Sweeps
    /// stale `cluster-meta.tmp` litter from a crash mid-save first, the
    /// same recovery discipline the store applies to snapshot litter.
    pub fn load(dir: &Path) -> io::Result<Self> {
        ssj_io::fs::sweep_tmp_files(dir)?;
        #[expect(clippy::disallowed_methods, reason = "CRC-checked by FrameReader")]
        let bytes = fs::read(dir.join(META_FILE))?;
        Self::decode(&bytes)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests plant raw files")]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let meta = ClusterMeta::bootstrap(3, 8, 0xC10C);
        let bytes = meta.encode().unwrap();
        assert_eq!(ClusterMeta::decode(&bytes).unwrap(), meta);
        let ring = meta.ring().unwrap();
        assert_eq!(ring, HashRing::new(3, 8, 0xC10C));
    }

    #[test]
    fn corruption_and_truncation_are_detected() {
        let meta = ClusterMeta::bootstrap(2, 4, 7);
        let clean = meta.encode().unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x20;
            assert!(ClusterMeta::decode(&bad).is_err(), "flip at {i} undetected");
        }
        for cut in 0..clean.len() {
            assert!(ClusterMeta::decode(&clean[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = clean.clone();
        trailing.push(0);
        assert!(ClusterMeta::decode(&trailing).is_err());
    }

    #[test]
    fn load_sweeps_stale_tmp_litter() {
        let dir = std::env::temp_dir().join(format!("ssj-cluster-meta-sw-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let meta = ClusterMeta::bootstrap(3, 8, 99);
        meta.save(&dir).unwrap();
        // A crash mid-save leaves a torn staging file; recovery must not
        // trip over it and must remove it.
        fs::write(dir.join("cluster-meta.tmp"), b"torn half-save").unwrap();
        assert_eq!(ClusterMeta::load(&dir).unwrap(), meta);
        assert!(!dir.join("cluster-meta.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("ssj-cluster-meta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let meta = ClusterMeta::bootstrap(5, 16, 1234);
        meta.save(&dir).unwrap();
        assert_eq!(ClusterMeta::load(&dir).unwrap(), meta);
        assert!(!dir.join("cluster-meta.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
