//! `HashRing` — content-hash placement lifted to the node level.
//!
//! Each node contributes `vnodes` deterministic points on a `u64` ring; a
//! set is owned by the first point at or clockwise-after its content hash
//! (wrapping past the top). The hash is [`ssj_core::index::content_hash_of`]
//! — the *same* value the in-node shard placement reduces — so a set's
//! routing key is computed once per layer from one definition, and the
//! node that owns a set also generates its signatures and probes its
//! candidates locally (signature-local partitioning).
//!
//! The point set is a pure function of `(seed, node count, vnodes)`, so
//! every router that agrees on the persisted [`crate::ClusterMeta`] agrees
//! on placement without any coordination.

use ssj_core::index::{content_hash_of, Placement};
use ssj_core::set::ElementId;

/// One ring point: position on the `u64` circle and the owning node.
pub type RingPoint = (u64, u32);

/// SplitMix64 finalizer: decorrelates the (node, vnode) lattice into ring
/// positions.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Consistent-hash placement over cluster nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// Ring points, ascending by position (ties broken by node id).
    points: Vec<RingPoint>,
    nodes: u32,
    seed: u64,
}

impl HashRing {
    /// Default virtual points per node: enough to keep the load imbalance
    /// across a handful of nodes modest while the point vector stays tiny.
    pub const DEFAULT_VNODES: u32 = 64;

    /// Builds the ring for `nodes` nodes with `vnodes` points each, both
    /// clamped to at least one. The point set depends only on the
    /// arguments.
    pub fn new(nodes: u32, vnodes: u32, seed: u64) -> Self {
        let nodes = nodes.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity((nodes as usize) * (vnodes as usize));
        for node in 0..nodes {
            for vnode in 0..vnodes {
                let pos = mix64(
                    seed ^ (u64::from(node)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
                        ^ (u64::from(vnode)).wrapping_mul(0x1656_67b1_9e37_79f9),
                );
                points.push((pos, node));
            }
        }
        points.sort_unstable();
        Self {
            points,
            nodes,
            seed,
        }
    }

    /// Reconstructs a ring from persisted points (see [`crate::ClusterMeta`]).
    /// `points` must be non-empty and ascending; every node id must be
    /// below `nodes`.
    pub fn from_points(points: Vec<RingPoint>, nodes: u32, seed: u64) -> Result<Self, String> {
        if points.is_empty() {
            return Err("ring needs at least one point".into());
        }
        if !points.windows(2).all(|w| w[0] <= w[1]) {
            return Err("ring points must be ascending".into());
        }
        if let Some(&(_, node)) = points.iter().find(|&&(_, node)| node >= nodes.max(1)) {
            return Err(format!("ring point names node {node} of {nodes}"));
        }
        Ok(Self {
            points,
            nodes: nodes.max(1),
            seed,
        })
    }

    /// The ring's hash seed (shared with the persisted meta).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The ring points, ascending (for persistence).
    pub fn points(&self) -> &[RingPoint] {
        &self.points
    }

    /// The node owning raw ring position `hash`: first point at or after
    /// it, wrapping to the first point past the top of the circle.
    fn node_at(&self, hash: u64) -> u32 {
        let i = self.points.partition_point(|&(pos, _)| pos < hash);
        match self.points.get(i) {
            Some(&(_, node)) => node,
            None => self.points[0].1,
        }
    }
}

impl Placement for HashRing {
    fn buckets(&self) -> usize {
        self.nodes as usize
    }

    fn bucket_of(&self, set: &[ElementId]) -> usize {
        self.node_at(content_hash_of(set, self.seed)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let ring = HashRing::new(5, 16, 42);
        assert_eq!(ring.buckets(), 5);
        for i in 0..500u32 {
            let set: Vec<u32> = (i..i + 4).collect();
            let a = ring.bucket_of(&set);
            assert!(a < 5);
            assert_eq!(a, HashRing::new(5, 16, 42).bucket_of(&set));
        }
    }

    #[test]
    fn ring_is_roughly_balanced() {
        let ring = HashRing::new(4, HashRing::DEFAULT_VNODES, 7);
        let mut counts = [0usize; 4];
        for i in 0..4000u32 {
            counts[ring.bucket_of(&[i * 3, i * 3 + 1])] += 1;
        }
        // 4000 keys over 4 nodes with 64 vnodes each: every node should
        // carry a material share. The bound is loose on purpose — ring
        // balance is statistical, and the point set is fixed by the seed.
        assert!(counts.iter().all(|&c| c > 400), "{counts:?}");
    }

    #[test]
    fn points_round_trip_through_from_points() {
        let ring = HashRing::new(3, 8, 99);
        let rebuilt = HashRing::from_points(ring.points().to_vec(), 3, 99).unwrap();
        assert_eq!(ring, rebuilt);
        assert!(HashRing::from_points(Vec::new(), 3, 99).is_err());
        assert!(HashRing::from_points(vec![(5, 9)], 3, 99).is_err());
        assert!(HashRing::from_points(vec![(5, 0), (1, 1)], 3, 99).is_err());
    }

    #[test]
    fn wraparound_owner_is_the_first_point() {
        let ring = HashRing::from_points(vec![(100, 2), (200, 0)], 3, 0).unwrap();
        assert_eq!(ring.node_at(50), 2);
        assert_eq!(ring.node_at(100), 2);
        assert_eq!(ring.node_at(150), 0);
        assert_eq!(ring.node_at(201), 2, "past the top wraps to first point");
    }
}
