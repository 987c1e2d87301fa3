//! The one on-disk set image: a read-only, immutable, block-framed
//! segment.
//!
//! Every persisted set collection in the workspace is a segment: each
//! shard snapshot of the store (`shard-<i>.snap`), every image a node
//! ships to a replica, and the input of the out-of-core join. Point reads
//! and streaming scans use it without loading it whole:
//!
//! ```text
//! [5-byte magic "SSJE\x02"]
//! [block frame]*          each an ssj_io frame: varint len + payload + crc32
//! [footer frame]          block directory: (offset, first_id, n_sets)*,
//!                         total_sets, total_elems, then the stamp:
//!                         shard, shard_count, seq, next_id
//! [12-byte trailer]       u64 LE footer offset + crc32 of those 8 bytes
//! ```
//!
//! Block payloads hold ascending-id sets: a header (`first_id`,
//! `n_sets`) then per set an id delta (gaps allowed — ids survive
//! tombstones), a length, and delta-minus-one coded elements — the same
//! element coding `ssj_io::write_collection` uses. The footer's
//! [`SegmentStamp`] says what the image is: which shard of how many, the
//! write-sequence watermark it captures, and `next_id`, one past every id
//! it may hold. Every structural claim is double-checked on open: the
//! trailer CRC guards the footer pointer, the footer is a checksummed
//! frame, block offsets and first ids must ascend, and each block frame
//! re-verifies its own CRC when read, and that its ids ascend and stay
//! below the next block's first id (the last block's: `next_id`). A bit
//! flip anywhere — footer, trailer, or block — is a hard `InvalidData`
//! error, never a silently shorter or reordered answer (`cargo xtask
//! crashtest`'s `flip-snap` flips every region; this crate's proptests
//! sweep truncations and single-bit flips). An older image — a v1
//! segment, or an image of the retired v1 snapshot codec — fails the
//! magic check.
//!
//! [`stream_segment`] writes into any [`Write`]: a file staged by
//! `ssj_io::fs::publish_durable` ([`write_segment`]: stage → fsync →
//! rename → dir-fsync, so a crash mid-write leaves only a tmp file that
//! store recovery sweeps away), or a `Vec<u8>` for an image shipped over
//! the wire — the same bytes either way.

use ssj_core::set::{ElementId, SetCollection};
use ssj_io::frame::{read_single, write_frame, Frame, FrameReader};
use ssj_io::fs::publish_durable;
use ssj_io::varint::{read_varint, write_varint};
use std::fs::File;
use std::io::{self, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Versioned magic prefix ("SSJ External", format version 2).
pub const SEGMENT_MAGIC: [u8; 5] = *b"SSJE\x02";

/// Fixed trailer: `u64` LE footer offset + `u32` LE CRC of those bytes.
const TRAILER_LEN: u64 = 12;

/// Default uncompressed payload target per block.
const DEFAULT_BLOCK_TARGET: usize = 64 << 10;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// What a segment is an image of, carried in its footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStamp {
    /// The shard the image belongs to (`0` for an unsharded collection).
    pub shard: u64,
    /// How many shards the image's store has (`1` when unsharded).
    pub shard_count: u64,
    /// Write-sequence watermark: the image holds exactly the writes
    /// numbered below it (`0` for a batch input).
    pub seq: u64,
    /// One past every id the image may hold; ids below it that are absent
    /// are tombstones.
    pub next_id: u64,
}

/// One block's directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// File offset of the block's frame.
    pub offset: u64,
    /// Id of the block's first set (blocks are ascending and disjoint).
    pub first_id: u64,
    /// Sets in the block (≥ 1).
    pub n_sets: u64,
}

/// Summary of a finished segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Number of blocks written.
    pub blocks: usize,
    /// Total sets.
    pub total_sets: u64,
    /// Total elements across all sets.
    pub total_elems: u64,
    /// Final file size in bytes.
    pub file_bytes: u64,
}

/// Streams ascending-id sets into a new segment.
///
/// `push` ids must be strictly ascending and below the stamp's `next_id`,
/// and each set strictly sorted — the canonical invariants everywhere in
/// this workspace — and the writer rejects violations instead of
/// persisting them.
struct SegmentWriter<W: Write> {
    out: W,
    stamp: SegmentStamp,
    offset: u64,
    block_target: usize,
    block_payload: Vec<u8>,
    block_first_id: u64,
    block_sets: u64,
    prev_id: Option<u64>,
    blocks: Vec<BlockMeta>,
    total_sets: u64,
    total_elems: u64,
    frame_buf: Vec<u8>,
}

impl<W: Write> SegmentWriter<W> {
    fn begin(mut out: W, block_target: usize, stamp: SegmentStamp) -> io::Result<Self> {
        out.write_all(&SEGMENT_MAGIC)?;
        Ok(Self {
            out,
            stamp,
            offset: SEGMENT_MAGIC.len() as u64,
            block_target: if block_target == 0 {
                DEFAULT_BLOCK_TARGET
            } else {
                block_target
            },
            block_payload: Vec::new(),
            block_first_id: 0,
            block_sets: 0,
            prev_id: None,
            blocks: Vec::new(),
            total_sets: 0,
            total_elems: 0,
            frame_buf: Vec::new(),
        })
    }

    fn push(&mut self, id: u64, set: &[ElementId]) -> io::Result<()> {
        if let Some(prev) = self.prev_id.filter(|&prev| id <= prev) {
            return Err(invalid(format!(
                "segment ids must be strictly ascending ({id} after {prev})"
            )));
        }
        if id >= self.stamp.next_id {
            return Err(invalid(format!(
                "segment id {id} is not below next_id {}",
                self.stamp.next_id
            )));
        }
        if !set.windows(2).all(|w| w[0] < w[1]) {
            return Err(invalid(format!(
                "segment sets must be strictly sorted (set {id})"
            )));
        }
        match self.prev_id {
            // Gap-tolerant id delta: ids survive tombstoned predecessors.
            Some(prev) if self.block_sets > 0 => {
                write_varint(&mut self.block_payload, id - prev - 1)?
            }
            _ => self.block_first_id = id,
        }
        write_varint(&mut self.block_payload, set.len() as u64)?;
        if let Some((&first, rest)) = set.split_first() {
            write_varint(&mut self.block_payload, u64::from(first))?;
            let mut prev = first;
            for &e in rest {
                write_varint(&mut self.block_payload, u64::from(e - prev - 1))?;
                prev = e;
            }
        }
        self.prev_id = Some(id);
        self.block_sets += 1;
        self.total_sets += 1;
        self.total_elems += set.len() as u64;
        if self.block_payload.len() >= self.block_target {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_sets == 0 {
            return Ok(());
        }
        self.frame_buf.clear();
        write_varint(&mut self.frame_buf, self.block_first_id)?;
        write_varint(&mut self.frame_buf, self.block_sets)?;
        self.frame_buf.extend_from_slice(&self.block_payload);
        let written = write_frame(&mut self.out, &self.frame_buf)?;
        self.blocks.push(BlockMeta {
            offset: self.offset,
            first_id: self.block_first_id,
            n_sets: self.block_sets,
        });
        self.offset += written as u64;
        self.block_payload.clear();
        self.block_sets = 0;
        Ok(())
    }

    /// Writes the last block, the footer and the trailer.
    fn finish_segment(mut self) -> io::Result<(W, SegmentInfo)> {
        self.flush_block()?;
        let footer_offset = self.offset;
        let buf = &mut self.frame_buf;
        buf.clear();
        write_varint(buf, self.blocks.len() as u64)?;
        for b in &self.blocks {
            write_varint(buf, b.offset)?;
            write_varint(buf, b.first_id)?;
            write_varint(buf, b.n_sets)?;
        }
        let st = self.stamp;
        for v in [
            self.total_sets,
            self.total_elems,
            st.shard,
            st.shard_count,
            st.seq,
            st.next_id,
        ] {
            write_varint(buf, v)?;
        }
        let footer_bytes = write_frame(&mut self.out, buf)?;
        let offset_bytes = footer_offset.to_le_bytes();
        self.out.write_all(&offset_bytes)?;
        self.out
            .write_all(&ssj_io::crc::crc32(&offset_bytes).to_le_bytes())?;
        let info = SegmentInfo {
            blocks: self.blocks.len(),
            total_sets: self.total_sets,
            total_elems: self.total_elems,
            file_bytes: footer_offset + footer_bytes as u64 + TRAILER_LEN,
        };
        Ok((self.out, info))
    }
}

/// Streams `sets` (strictly ascending ids, canonical sets) into `out` as
/// one segment, block by block, targeting `block_target` payload bytes
/// per block (`0` = default 64 KiB). Returns the sink (unflushed) and the
/// segment's summary.
pub fn stream_segment<'a, W: Write>(
    out: W,
    block_target: usize,
    stamp: SegmentStamp,
    sets: impl IntoIterator<Item = (u64, &'a [ElementId])>,
) -> io::Result<(W, SegmentInfo)> {
    let mut w = SegmentWriter::begin(out, block_target, stamp)?;
    for (id, set) in sets {
        w.push(id, set)?;
    }
    w.finish_segment()
}

/// [`stream_segment`] into a file at `path`, published through
/// `ssj_io::fs::publish_durable`.
pub fn write_segment<'a>(
    path: &Path,
    block_target: usize,
    stamp: SegmentStamp,
    sets: impl IntoIterator<Item = (u64, &'a [ElementId])>,
) -> io::Result<SegmentInfo> {
    publish_durable(path, |out| {
        stream_segment(out, block_target, stamp, sets).map(|(_, info)| info)
    })
}

/// Writes `collection` as a segment with dense ids `0..n`. The batch
/// join path's bridge: the pairs an external join reports over this
/// segment use the same ids as an in-memory join over `collection`.
pub fn write_collection_segment(
    path: &Path,
    collection: &SetCollection,
    block_target: usize,
) -> io::Result<SegmentInfo> {
    let stamp = SegmentStamp {
        shard: 0,
        shard_count: 1,
        seq: 0,
        next_id: collection.len() as u64,
    };
    let sets = collection.iter().map(|(id, set)| (u64::from(id), set));
    write_segment(path, block_target, stamp, sets)
}

/// One decoded block, with reusable buffers.
#[derive(Debug, Default)]
pub struct SegmentBlock {
    raw: Vec<u8>,
    ids: Vec<u64>,
    elems: Vec<ElementId>,
    offsets: Vec<u32>,
}

impl SegmentBlock {
    /// Sets in the block.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the block holds no sets.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Id of the `i`-th set.
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Elements of the `i`-th set.
    pub fn set(&self, i: usize) -> &[ElementId] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.elems[lo..hi]
    }

    /// Elements of the set with id `id`, if present.
    pub fn find(&self, id: u64) -> Option<&[ElementId]> {
        self.ids.binary_search(&id).ok().map(|i| self.set(i))
    }

    /// Deterministic resident-size estimate for budget accounting.
    pub fn approx_bytes(&self) -> u64 {
        (self.raw.len() + self.ids.len() * 12 + self.elems.len() * 4) as u64
    }

    /// Decodes one block payload; every id must be below `limit`.
    fn decode(&mut self, payload: &[u8], meta: &BlockMeta, limit: u64) -> io::Result<()> {
        self.ids.clear();
        self.elems.clear();
        self.offsets.clear();
        self.offsets.push(0);
        let mut cur = payload;
        let first_id = read_varint(&mut cur)?;
        let n_sets = read_varint(&mut cur)?;
        if first_id != meta.first_id || n_sets != meta.n_sets {
            return Err(invalid(format!(
                "block header ({first_id}, {n_sets}) disagrees with the footer \
                 directory ({}, {})",
                meta.first_id, meta.n_sets
            )));
        }
        let mut id = first_id;
        for i in 0..n_sets {
            if i > 0 {
                let gap = read_varint(&mut cur)?;
                id = id
                    .checked_add(gap)
                    .and_then(|v| v.checked_add(1))
                    .ok_or_else(|| invalid("block id delta overflows u64"))?;
            }
            if id >= limit {
                return Err(invalid(format!(
                    "block id {id} is not below {limit} (the next block's first id, \
                     or next_id)"
                )));
            }
            let len = read_varint(&mut cur)?;
            if len > payload.len() as u64 {
                return Err(invalid("block set length exceeds the block itself"));
            }
            let mut prev: u64 = 0;
            for j in 0..len {
                let delta = read_varint(&mut cur)?;
                let e = if j == 0 { delta } else { prev + delta + 1 };
                let e32 = u32::try_from(e)
                    .map_err(|_| invalid("block element overflows the u32 domain"))?;
                self.elems.push(e32);
                prev = e;
            }
            self.ids.push(id);
            let end = u32::try_from(self.elems.len())
                .map_err(|_| invalid("block holds more than u32::MAX elements"))?;
            self.offsets.push(end);
        }
        if !cur.is_empty() {
            return Err(invalid("trailing bytes after the block's last set"));
        }
        Ok(())
    }
}

/// An open segment: validated block directory plus the reader (a file by
/// default, or a cursor over a shipped image).
///
/// Opening validates magic, trailer CRC, footer frame CRC, and directory
/// monotonicity; block payload CRCs are verified on each
/// [`Segment::read_block`]. Any failure is a hard error — a segment is
/// written atomically, so unlike a WAL tail there is no benign torn
/// state to tolerate.
pub struct Segment<R = File> {
    file: R,
    blocks: Vec<BlockMeta>,
    footer_offset: u64,
    total_sets: u64,
    total_elems: u64,
    stamp: SegmentStamp,
}

impl Segment {
    /// Opens and structurally validates the file at `path`.
    pub fn open_path(path: &Path) -> io::Result<Self> {
        Self::open(File::open(path)?)
    }
}

impl<R: Read + Seek> Segment<R> {
    /// Structurally validates the segment `file` holds.
    pub fn open(mut file: R) -> io::Result<Self> {
        let len = file.seek(SeekFrom::End(0))?;
        if len < SEGMENT_MAGIC.len() as u64 + TRAILER_LEN {
            return Err(invalid(format!("segment is truncated ({len} bytes)")));
        }
        let mut magic = [0u8; SEGMENT_MAGIC.len()];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut magic)?;
        if magic != SEGMENT_MAGIC {
            return Err(invalid(format!(
                "bad segment magic {:?} v{}: not a v2 segment (v1 segments and \
                 v1 snapshot images have no reader)",
                String::from_utf8_lossy(&magic[..4]),
                magic[4]
            )));
        }
        file.seek(SeekFrom::Start(len - TRAILER_LEN))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact(&mut trailer)?;
        let offset_bytes: [u8; 8] = trailer[..8].try_into().unwrap_or_default();
        let stored_crc = u32::from_le_bytes(trailer[8..].try_into().unwrap_or_default());
        if ssj_io::crc::crc32(&offset_bytes) != stored_crc {
            return Err(invalid("segment trailer checksum mismatch"));
        }
        let footer_offset = u64::from_le_bytes(offset_bytes);
        if footer_offset < SEGMENT_MAGIC.len() as u64 || footer_offset >= len - TRAILER_LEN {
            return Err(invalid(format!(
                "segment footer offset {footer_offset} outside the file"
            )));
        }
        file.seek(SeekFrom::Start(footer_offset))?;
        let mut footer_bytes = vec![0u8; (len - TRAILER_LEN - footer_offset) as usize];
        file.read_exact(&mut footer_bytes)?;
        let footer =
            read_single(&footer_bytes).map_err(|e| invalid(format!("segment footer: {e}")))?;
        let mut cur = footer.as_slice();
        let n_blocks = read_varint(&mut cur)?;
        if n_blocks > len / 5 {
            return Err(invalid("segment footer claims more blocks than fit"));
        }
        let mut blocks = Vec::with_capacity(n_blocks as usize);
        for _ in 0..n_blocks {
            let offset = read_varint(&mut cur)?;
            let first_id = read_varint(&mut cur)?;
            let n_sets = read_varint(&mut cur)?;
            if n_sets == 0 {
                return Err(invalid("segment footer lists an empty block"));
            }
            if let Some(prev) = blocks.last() {
                let prev: &BlockMeta = prev;
                if offset <= prev.offset || first_id <= prev.first_id {
                    return Err(invalid(
                        "segment footer directory is not strictly ascending",
                    ));
                }
            } else if offset != SEGMENT_MAGIC.len() as u64 {
                return Err(invalid("first block does not follow the magic"));
            }
            if offset >= footer_offset {
                return Err(invalid("block offset overlaps the footer"));
            }
            blocks.push(BlockMeta {
                offset,
                first_id,
                n_sets,
            });
        }
        let mut field = || read_varint(&mut cur);
        let (total_sets, total_elems) = (field()?, field()?);
        let stamp = SegmentStamp {
            shard: field()?,
            shard_count: field()?,
            seq: field()?,
            next_id: field()?,
        };
        if !cur.is_empty() {
            return Err(invalid("trailing bytes in the segment footer"));
        }
        if total_sets != blocks.iter().map(|b| b.n_sets).sum::<u64>() {
            return Err(invalid(
                "segment footer set count disagrees with its blocks",
            ));
        }
        Ok(Self {
            file,
            blocks,
            footer_offset,
            total_sets,
            total_elems,
            stamp,
        })
    }

    /// What the segment is an image of.
    pub fn stamp(&self) -> SegmentStamp {
        self.stamp
    }

    /// The block directory.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Total sets in the segment.
    pub fn total_sets(&self) -> u64 {
        self.total_sets
    }

    /// Total elements across all sets.
    pub fn total_elems(&self) -> u64 {
        self.total_elems
    }

    /// Reads and CRC-verifies block `idx` into `block`'s reused buffers.
    /// Its ids must ascend and stay below the next block's first id (and
    /// `next_id`), so ids ascend across the whole segment.
    pub fn read_block(&mut self, idx: usize, block: &mut SegmentBlock) -> io::Result<()> {
        let Some(meta) = self.blocks.get(idx).copied() else {
            return Err(invalid(format!("block {idx} out of range")));
        };
        let next = self.blocks.get(idx + 1);
        let end = next.map_or(self.footer_offset, |b| b.offset);
        let limit = next.map_or(self.stamp.next_id, |b| b.first_id.min(self.stamp.next_id));
        let frame_len = (end - meta.offset) as usize;
        block.raw.resize(frame_len, 0);
        self.file.seek(SeekFrom::Start(meta.offset))?;
        self.file.read_exact(&mut block.raw)?;
        let mut reader = FrameReader::new(block.raw.as_slice());
        let payload = match reader.next_frame()? {
            Frame::Payload(p) => p,
            other => {
                return Err(invalid(format!(
                    "segment block {idx} failed verification: {other:?}"
                )))
            }
        };
        block.decode(&payload, &meta, limit)
    }

    /// The block that would contain `id`, by directory binary search.
    fn block_of(&self, id: u64) -> Option<usize> {
        let idx = self.blocks.partition_point(|b| b.first_id <= id);
        idx.checked_sub(1)
    }

    /// Point lookup: copies the set stored under `id` into `out` and
    /// returns `true`, or returns `false` for an absent id. Repeated
    /// lookups reuse `cache`'s decoded blocks.
    pub fn lookup(
        &mut self,
        id: u64,
        cache: &mut BlockCache,
        out: &mut Vec<ElementId>,
    ) -> io::Result<bool> {
        out.clear();
        let Some(idx) = self.block_of(id) else {
            return Ok(false);
        };
        let block = cache.block(self, idx)?;
        match block.find(id) {
            Some(set) => {
                out.extend_from_slice(set);
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

/// A budget-capped cache of decoded blocks for point-read bursts.
///
/// Eviction is clear-on-overflow: admitting a block that would push the
/// cache past its cap first recycles every resident block's buffers.
/// Crude but deterministic — the accounted footprint never exceeds
/// `cap_bytes + one block`, and verification sorts its reads so
/// same-block runs still hit.
pub struct BlockCache {
    cap_bytes: u64,
    used: u64,
    slots: Vec<(usize, SegmentBlock)>,
    free: Vec<SegmentBlock>,
}

impl BlockCache {
    /// A cache bounded by `cap_bytes` of decoded-block estimate.
    pub fn new(cap_bytes: u64) -> Self {
        Self {
            cap_bytes,
            used: 0,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Accounted bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Block `idx` of `segment`, decoded, reading it only on a miss.
    pub fn block<R: Read + Seek>(
        &mut self,
        segment: &mut Segment<R>,
        idx: usize,
    ) -> io::Result<&SegmentBlock> {
        if let Some(pos) = self.slots.iter().position(|(i, _)| *i == idx) {
            return Ok(&self.slots[pos].1);
        }
        let mut block = self.free.pop().unwrap_or_default();
        segment.read_block(idx, &mut block)?;
        let bytes = block.approx_bytes();
        if self.used + bytes > self.cap_bytes && !self.slots.is_empty() {
            for (_, old) in std::mem::take(&mut self.slots) {
                self.free.push(old);
            }
            self.used = 0;
        }
        self.used += bytes;
        self.slots.push((idx, block));
        // The slot just pushed; index it directly rather than unwrap.
        match self.slots.last() {
            Some((_, b)) => Ok(b),
            None => Err(invalid("block cache lost its freshly admitted slot")),
        }
    }
}
