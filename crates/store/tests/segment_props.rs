//! Property tests for the segment format (`ssj_store::segment`) — the
//! one image of shard snapshots, shipped replica images and out-of-core
//! join input — mirroring the WAL frame suite in `ssj-io`:
//!
//! 1. roundtrip — any collection of ascending-id canonical sets encodes
//!    and decodes losslessly, through both block scans and point lookups,
//!    and the footer stamp (shard, shard count, watermark, `next_id`)
//!    reads back as written, from a file and from an in-memory image;
//! 2. truncation — cutting the file at *every* byte offset makes
//!    `Segment::open_path` fail (a segment is written atomically, so unlike a
//!    WAL there is no valid shorter prefix to salvage);
//! 3. corruption — a single bit flip anywhere in the file is detected by
//!    open or by the first read of the affected block, never silently
//!    decoded into different sets;
//! 4. order — a checksum-valid image whose blocks overlap in id range is
//!    refused when the earlier block is read.

#![expect(clippy::disallowed_methods, reason = "tests tear segment files")]

use proptest::prelude::*;
use ssj_store::segment::{
    stream_segment, write_segment, BlockCache, Segment, SegmentBlock, SegmentStamp, SEGMENT_MAGIC,
};
use ssj_store::ShardState;
use std::io::{Read, Seek};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NAME_SALT: AtomicU64 = AtomicU64::new(0);

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ssj_segprop_{tag}_{}_{}.seg",
        std::process::id(),
        NAME_SALT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Raw material for a segment: element vectors (canonicalized below) and
/// id gaps. The compat proptest subset has no tuple strategies, so sets
/// and gaps are drawn separately and zipped by [`build_entries`].
fn sets_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..5_000, 0..30), 1..40)
}

fn gaps_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..40, 0..40)
}

/// Ascending (possibly gapped) ids with canonical (strictly sorted) sets.
fn build_entries(raw_sets: Vec<Vec<u32>>, gaps: &[u64]) -> Vec<(u64, Vec<u32>)> {
    let mut id = 0u64;
    raw_sets
        .into_iter()
        .enumerate()
        .map(|(i, mut set)| {
            set.sort_unstable();
            set.dedup();
            id += gaps.get(i).copied().unwrap_or(0);
            let entry = (id, set);
            id += 1; // strictly ascending even with a zero gap
            entry
        })
        .collect()
}

/// A stamp derived from the entries: `next_id` one past the last id (plus
/// `slack`), the other fields arbitrary but distinct.
fn stamp_for(entries: &[(u64, Vec<u32>)], slack: u64) -> SegmentStamp {
    let next_id = entries.last().map_or(0, |(id, _)| id + 1) + slack;
    SegmentStamp {
        shard: slack % 7,
        shard_count: 7 + slack,
        seq: 1_000 + slack * 3,
        next_id,
    }
}

fn write_entries(path: &std::path::Path, entries: &[(u64, Vec<u32>)], block_target: usize) {
    let sets = entries.iter().map(|(id, set)| (*id, set.as_slice()));
    write_segment(path, block_target, stamp_for(entries, 0), sets).expect("write segment");
}

/// Reads every block and returns all `(id, set)` entries in order.
fn read_everything<R: Read + Seek>(seg: &mut Segment<R>) -> Vec<(u64, Vec<u32>)> {
    let mut block = SegmentBlock::default();
    let mut out = Vec::new();
    for idx in 0..seg.blocks().len() {
        seg.read_block(idx, &mut block).expect("read block");
        for i in 0..block.len() {
            out.push((block.id(i), block.set(i).to_vec()));
        }
    }
    out
}

#[test]
fn writer_refuses_ids_at_or_above_next_id() {
    let stamp = stamp_for(&[(0, vec![])], 0);
    let ok: [(u64, &[u32]); 1] = [(0, &[1, 2])];
    stream_segment(Vec::new(), 0, stamp, ok).expect("id 0 is below next_id 1");
    let past: [(u64, &[u32]); 2] = [(0, &[1, 2]), (1, &[3])];
    let err = stream_segment(Vec::new(), 0, stamp, past).expect_err("id 1 is not below 1");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A CRC-valid two-block image built by hand: block 0 holds ids 0 and 5,
/// block 1 holds one set whose id is `second_first_id`.
fn two_block_image(second_first_id: u64) -> Vec<u8> {
    use ssj_io::frame::write_frame;
    use ssj_io::varint::write_varint;
    let varints = |vals: &[u64]| {
        let mut buf = Vec::new();
        for &v in vals {
            write_varint(&mut buf, v).expect("vec write");
        }
        buf
    };
    let mut image = SEGMENT_MAGIC.to_vec();
    // (first_id, n_sets, len, elem, gap, len, elem): ids 0 and 0 + 4 + 1.
    write_frame(&mut image, &varints(&[0, 2, 1, 7, 4, 1, 8])).expect("vec write");
    let second = image.len() as u64;
    write_frame(&mut image, &varints(&[second_first_id, 1, 1, 9])).expect("vec write");
    let footer_offset = image.len() as u64;
    // Directory, total sets and elements, then shard 0 of 1, seq 0, next_id 10.
    let footer = [2, 5, 0, 2, second, second_first_id, 1, 3, 3, 0, 1, 0, 10];
    write_frame(&mut image, &varints(&footer)).expect("vec write");
    let offset_bytes = footer_offset.to_le_bytes();
    image.extend_from_slice(&offset_bytes);
    image.extend_from_slice(&ssj_io::crc::crc32(&offset_bytes).to_le_bytes());
    image
}

#[test]
fn blocks_whose_ids_overlap_are_rejected() {
    let ascending = two_block_image(6);
    let mut seg = Segment::open(std::io::Cursor::new(ascending.as_slice())).expect("open");
    assert_eq!(
        read_everything(&mut seg),
        vec![(0, vec![7]), (5, vec![8]), (6, vec![9])]
    );
    ShardState::from_image(&ascending, 0, 1).expect("ascending image decodes");

    // Block 0 ends at id 5, at or past block 1's first id: the directory
    // alone still ascends (0 < 3, 0 < 5), so only the block read can tell.
    for first in [3, 5] {
        let overlapping = two_block_image(first);
        let mut seg = Segment::open(std::io::Cursor::new(overlapping.as_slice())).expect("open");
        let err = seg
            .read_block(0, &mut SegmentBlock::default())
            .expect_err("block 0 overlaps block 1");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let err = ShardState::from_image(&overlapping, 0, 1).expect_err("overlap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scan and point-lookup both return exactly what was written — with a
    /// tiny block target so multi-block layout, id gaps, and block
    /// boundaries all get exercised.
    #[test]
    fn roundtrip_scan_and_lookup(
        raw_sets in sets_strategy(),
        gaps in gaps_strategy(),
        slack in 0u64..1_000,
    ) {
        let entries = build_entries(raw_sets, &gaps);
        let path = tmp_path("rt");
        write_entries(&path, &entries, 48);
        let mut seg = Segment::open_path(&path).expect("open segment");
        prop_assert_eq!(seg.stamp(), stamp_for(&entries, 0));
        prop_assert_eq!(seg.total_sets(), entries.len() as u64);
        // The in-memory writer produces the same image, stamp included.
        let stamp = stamp_for(&entries, slack);
        let sets = entries.iter().map(|(id, set)| (*id, set.as_slice()));
        let (image, info) = stream_segment(Vec::new(), 48, stamp, sets).expect("encode image");
        prop_assert_eq!(info.file_bytes, image.len() as u64);
        let mut mem = Segment::open(std::io::Cursor::new(image.clone())).expect("open image");
        prop_assert_eq!(mem.stamp(), stamp);
        prop_assert_eq!(read_everything(&mut mem), entries.clone());
        if slack == 0 {
            prop_assert_eq!(std::fs::read(&path).expect("read segment back"), image);
        }
        prop_assert_eq!(
            seg.total_elems(),
            entries.iter().map(|(_, s)| s.len() as u64).sum::<u64>()
        );
        prop_assert_eq!(read_everything(&mut seg), entries.clone());

        let mut cache = BlockCache::new(1 << 16);
        let mut out = Vec::new();
        for (id, set) in &entries {
            prop_assert!(seg.lookup(*id, &mut cache, &mut out).expect("lookup"));
            prop_assert_eq!(&out, set);
        }
        // Ids in the gaps (and past the end) must come back absent.
        let present: std::collections::BTreeSet<u64> =
            entries.iter().map(|(id, _)| *id).collect();
        let max_id = entries.last().map(|(id, _)| *id).unwrap_or(0);
        for id in 0..max_id + 3 {
            if !present.contains(&id) {
                prop_assert!(!seg.lookup(id, &mut cache, &mut out).expect("lookup"));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A single bit flip anywhere — magic, block, footer, trailer — is
    /// caught by open or by reading the blocks; it never mis-decodes.
    #[test]
    fn single_bit_flip_is_always_detected(
        raw_sets in sets_strategy(),
        gaps in gaps_strategy(),
        flip_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let entries = build_entries(raw_sets, &gaps);
        let path = tmp_path("fl");
        write_entries(&path, &entries, 48);
        let mut bytes = std::fs::read(&path).expect("read segment back");
        let pos = (flip_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let flip_path = tmp_path("flbit");
        std::fs::write(&flip_path, &bytes).expect("write flipped file");
        let outcome = Segment::open_path(&flip_path).and_then(|mut seg| {
            let mut block = SegmentBlock::default();
            for idx in 0..seg.blocks().len() {
                seg.read_block(idx, &mut block)?;
            }
            Ok(())
        });
        prop_assert!(
            outcome.is_err(),
            "bit {bit} flipped at byte {pos} of {} went undetected",
            bytes.len()
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&flip_path).ok();
    }
}

proptest! {
    // Every case writes one truncated file per byte offset; keep the case
    // count low so the sweep stays exhaustive per case but cheap overall.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Truncating the file at every offset is rejected at open.
    #[test]
    fn truncation_at_every_offset_is_rejected(raw_sets in sets_strategy(), gaps in gaps_strategy()) {
        let entries = build_entries(raw_sets, &gaps);
        let path = tmp_path("tr");
        write_entries(&path, &entries, 48);
        let bytes = std::fs::read(&path).expect("read segment back");
        let cut_path = tmp_path("trcut");
        for cut in 0..bytes.len() {
            std::fs::write(&cut_path, &bytes[..cut]).expect("write truncation");
            prop_assert!(
                Segment::open_path(&cut_path).is_err(),
                "truncation to {cut} of {} bytes opened successfully",
                bytes.len()
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut_path).ok();
    }
}
