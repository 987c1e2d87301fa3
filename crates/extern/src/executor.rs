//! The streaming external-join executor.
//!
//! Four passes over bounded memory (DESIGN.md §5h). A set's *slot* is its
//! position in the segment stream. The segment stores sets in ascending id
//! order, so slots ascend with ids: everything after the spill pass works
//! on slots, and every per-candidate lookup is an array index.
//!
//! 1. **Size** — stream the segment once, generating each set's
//!    signatures exactly as the in-memory driver does (sorted,
//!    deduplicated per set), to learn the total posting count and pick a
//!    partition count the budget can hold.
//! 2. **Spill** — stream again, hash-ranging every `(signature, slot)`
//!    posting into its partition file ([`crate::spill`]) and filling the
//!    slot table: `ids[slot]`, plus each set's bitmap and exact length
//!    when the bitmap filter is on. Every occurrence of a signature lands
//!    in the same partition.
//! 3. **Probe** — three steps. Each partition is read into one reused
//!    record buffer, sorted, and walked into its runs ([`Runs`], the
//!    in-memory driver's grouping): [`count_bucket_partners`] counts every
//!    slot's higher-slot partners, a prefix sum turns the counts into
//!    per-slot offsets, [`fill_bucket_partners`] rereads, resorts and
//!    rewalks the partitions and writes every partner into one flat `u32`
//!    array, and each slot's list is then sorted and deduplicated in
//!    place.
//! 4. **Verify** — walk the slots in ascending order and each slot's
//!    partners in ascending order, check the bitmap bound by direct index,
//!    and fetch only the survivors back out of the segment through a
//!    budget-capped [`ssj_store::segment::BlockCache`].
//!
//! Because per-set signature generation is identical, each signature's
//! full bucket is intact in exactly one partition, and the verify walk
//! visits candidates in the in-memory driver's set-major order, the
//! output is byte-identical to
//! [`ssj_core::self_join`] — `cargo xtask difftest` pins this with a
//! dedicated spill-oracle column.

use crate::budget::MemBudget;
use crate::spill::{
    partition_file_name, partition_of, read_partition, remove_partitions, spill_batch_capacity,
    SpillWriter,
};
use ssj_core::cast::usize_of_u64;
use ssj_core::partners::{
    count_bucket_partners, dedup_partner_lists, fill_bucket_partners, Runs, SigRecord,
};
use ssj_core::predicate::Predicate;
use ssj_core::set::{SetId, WeightMap};
use ssj_core::signature::{SigScratch, Signature, SignatureScheme};
use ssj_core::verify::BitmapIndex;
use ssj_store::segment::{BlockCache, Segment, SegmentBlock};
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Most bytes one spilled posting costs the probe: its record in the sort
/// buffer, its slot as a run member (4 B), and half a run end (8 B per
/// run of two or more). Partition sizing divides the index half of the
/// budget by this.
const PROBE_BYTES_PER_POSTING: u64 =
    (size_of::<SigRecord>() + size_of::<SetId>() + size_of::<usize>() / 2) as u64;

/// Hard ceiling on partitions — beyond this, per-partition batch buffers
/// dominate and more fan-out stops helping.
const MAX_PARTITIONS: u64 = 4096;

/// Charge per set of the slot table's `ids` column.
const SLOT_ID_BYTES: u64 = 4;

static SPILL_DIR_SALT: AtomicU64 = AtomicU64::new(0);

/// Tuning for [`external_self_join`].
#[derive(Debug, Clone)]
pub struct ExternConfig {
    /// Hard byte budget for accounted resident memory: the decoded block,
    /// the slot table, the spill batches, the probe's record buffer and
    /// runs (sized for the largest partition), and the verify block
    /// cache. The probe pass's partner lists (4 B per bucket collision,
    /// plus an 8 B offset per set — the arrays the in-memory driver builds
    /// too) and the output pairs sit outside the ledger.
    pub mem_budget: u64,
    /// Lower bound on the partition count (difftest uses this to force
    /// multi-partition execution under a generous budget).
    pub min_partitions: usize,
    /// Where spill files go; `None` picks a fresh directory under the
    /// system temp dir, removed on completion.
    pub spill_dir: Option<PathBuf>,
    /// Build a per-set bitmap table during the spill pass and check the
    /// popcount bound before the verify pass reads sets back from disk
    /// (DESIGN.md §5i). Automatically skipped for weighted predicates,
    /// and degraded to off (never an error, but reported as
    /// [`ExternStats::bitmap_degraded`]) when the table does not fit the
    /// memory budget.
    pub bitmap_filter: bool,
}

impl Default for ExternConfig {
    fn default() -> Self {
        Self {
            mem_budget: u64::MAX,
            min_partitions: 1,
            spill_dir: None,
            bitmap_filter: true,
        }
    }
}

/// Counters and timings from one external join.
///
/// Everything except the `*_secs` timings is deterministic for a fixed
/// input and config — `ssj-bench`'s `pinned_counts` test asserts
/// `partitions`, `peak_bytes`, and the counter block exactly.
#[derive(Debug, Clone, Default)]
pub struct ExternStats {
    /// Partitions the spill was ranged into.
    pub partitions: usize,
    /// The configured budget.
    pub mem_budget: u64,
    /// High-water mark of accounted resident bytes.
    pub peak_bytes: u64,
    /// Total signatures generated (after per-set dedup) = spilled postings.
    pub signatures: u64,
    /// Σ over buckets of c·(c−1)/2 — partition-invariant, equals the
    /// in-memory driver's collision counter.
    pub collisions: u64,
    /// Distinct candidate pairs after the per-slot dedup.
    pub candidates: u64,
    /// Candidates the bitmap table rejected before any segment read
    /// (0 when the filter is off, degraded, or the predicate is
    /// weighted). Deterministic: depends only on the candidate list.
    pub bitmap_pruned: u64,
    /// Candidates that passed the bitmap bound and went through the
    /// exact verify (`bitmap_pruned + bitmap_survivors = candidates`
    /// when the table was built).
    pub bitmap_survivors: u64,
    /// True when the bitmap filter was asked for but its table did not
    /// fit the budget, so every candidate went to the exact verify.
    pub bitmap_degraded: bool,
    /// Pairs surviving verification.
    pub output_pairs: u64,
    /// Postings written to spill files.
    pub spilled_records: u64,
    /// Spill file bytes written.
    pub spill_bytes: u64,
    /// Seconds in the sizing pass (signature generation included).
    pub sig_secs: f64,
    /// Seconds in the spill pass.
    pub spill_secs: f64,
    /// Seconds loading and probing partitions.
    pub probe_secs: f64,
    /// Seconds verifying candidates.
    pub verify_secs: f64,
}

/// Deterministic per-set charge of the slot table with the bitmap filter
/// on: `words_per_set · 8` bitmap bytes plus the popcount (4), segment id
/// (4), and set length (4). Independent of allocator behavior, so
/// accounted peaks reproduce exactly.
fn bitmap_set_bytes(words_per_set: usize) -> u64 {
    words_per_set as u64 * 8 + 12
}

/// Per-slot state built during the spill pass's existing stream. With
/// the bitmap filter on it also holds each set's bitmap and exact length,
/// so the verify pass can reject candidates *before* any block read
/// (DESIGN.md §5i); the lengths ride along because the popcount bound
/// needs them, and fetching them from disk would defeat the point.
struct SlotTable {
    /// `ids[slot]`: the segment id of each set, ascending.
    ids: Vec<SetId>,
    /// `lens[slot]`: exact set lengths; empty when the filter is off.
    lens: Vec<u32>,
    /// Bitmap rows by slot; `None` when the filter is off.
    bitmaps: Option<BitmapIndex>,
}

impl SlotTable {
    fn with_capacity(sets: usize, words_per_set: Option<usize>) -> Self {
        let bitmaps = words_per_set.map(|wps| {
            let mut bitmaps = BitmapIndex::new(wps);
            bitmaps.reserve(sets);
            bitmaps
        });
        Self {
            ids: Vec::with_capacity(sets),
            lens: Vec::with_capacity(if bitmaps.is_some() { sets } else { 0 }),
            bitmaps,
        }
    }

    /// Appends the next set and returns its slot.
    fn push(&mut self, id: SetId, set: &[u32]) -> u32 {
        debug_assert!(
            self.ids.last().is_none_or(|&prev| prev < id),
            "segment ids must arrive ascending so slots ascend with ids"
        );
        let slot = self.ids.len() as u32;
        self.ids.push(id);
        if let Some(bitmaps) = &mut self.bitmaps {
            self.lens.push(set.len() as u32);
            bitmaps.push(set);
        }
        slot
    }
}

/// Charges the ledger up to a new high-water mark. Reused buffers keep
/// their capacity, so the honest accounting for them is monotone: charge
/// growth, never release shrink until the buffer is actually dropped.
fn charge_high_water(
    budget: &mut MemBudget,
    charged: &mut u64,
    now: u64,
    what: &str,
) -> io::Result<()> {
    if now > *charged {
        budget
            .charge(now - *charged)
            .map_err(|e| io::Error::other(format!("{what}: {e}")))?;
        *charged = now;
    }
    Ok(())
}

/// Reads spill partition `part` (`expected` postings) into `records`,
/// sorts it, and walks it into `runs`. Both buffers were sized for the
/// largest partition, so none of this allocates.
fn walk_spill_partition(
    dir: &Path,
    part: usize,
    expected: u64,
    records: &mut Vec<SigRecord>,
    runs: &mut Runs,
) -> io::Result<()> {
    records.clear();
    let (read, _) = read_partition(&dir.join(partition_file_name(part)), records)?;
    if read != expected {
        return Err(spill_mismatch(part, "changed after the spill pass"));
    }
    records.sort_unstable();
    runs.clear();
    runs.walk_self_runs(&mut [records.as_slice()]);
    Ok(())
}

/// Probe pass over the partitions, `part_records[p]` postings in
/// partition `p`: the distinct higher-slot partners of every slot, as
/// `(offsets, partners)` with slot `s`'s list at
/// `partners[offsets[s]..offsets[s + 1]]`. Fills `stats.collisions` and
/// `stats.candidates`.
fn probe_partitions(
    dir: &Path,
    part_records: &[u64],
    sets: usize,
    budget: &mut MemBudget,
    stats: &mut ExternStats,
) -> io::Result<(Vec<usize>, Vec<u32>)> {
    let largest = usize_of_u64(part_records.iter().copied().max().unwrap_or(0));
    let mut records: Vec<SigRecord> = Vec::with_capacity(largest);
    let mut runs = Runs::with_capacity(largest);
    let buffers_charge =
        (records.capacity() * size_of::<SigRecord>()) as u64 + runs.capacity_bytes();
    budget
        .charge(buffers_charge)
        .map_err(|e| io::Error::other(format!("probe buffers: {e}")))?;
    let mut offsets = vec![0usize; sets + 1];
    let mut per_part = Vec::with_capacity(part_records.len());
    for (part, &expected) in part_records.iter().enumerate() {
        walk_spill_partition(dir, part, expected, &mut records, &mut runs)?;
        let collisions = count_bucket_partners(runs.self_buckets(), &mut offsets[..sets])
            .ok_or_else(|| spill_mismatch(part, "names a slot past the segment's sets"))?;
        per_part.push(collisions);
    }
    let mut total = 0usize;
    for offset in &mut offsets {
        let count = *offset;
        *offset = total;
        total += count;
    }
    let mut partners = vec![0u32; total];
    for (part, (&expected, &collisions)) in part_records.iter().zip(&per_part).enumerate() {
        walk_spill_partition(dir, part, expected, &mut records, &mut runs)?;
        if fill_bucket_partners(runs.self_buckets(), &mut offsets[..sets], &mut partners)
            != collisions
        {
            return Err(spill_mismatch(part, "changed between probe reads"));
        }
    }
    drop(records);
    drop(runs);
    budget.release(buffers_charge);
    // The fill advanced every cursor to its list's end; the last entry
    // still holds the total.
    stats.collisions = total as u64;
    stats.candidates = dedup_partner_lists(&mut offsets, &mut partners) as u64;
    Ok((offsets, partners))
}

/// Joins a segment against itself under `cfg.mem_budget`, returning the
/// exact result pairs (ascending, deduplicated — byte-identical to
/// [`ssj_core::self_join`] over the same sets) and run statistics.
///
/// Set ids in the segment must fit `u32` (the `SetId` domain); a segment
/// holding larger ids — possible after heavy compaction churn — is
/// rejected up front.
pub fn external_self_join<S: SignatureScheme>(
    segment: &mut Segment,
    scheme: &S,
    pred: Predicate,
    weights: Option<&WeightMap>,
    cfg: &ExternConfig,
) -> io::Result<(Vec<(SetId, SetId)>, ExternStats)> {
    let mut stats = ExternStats {
        mem_budget: cfg.mem_budget,
        ..ExternStats::default()
    };
    let mut budget = MemBudget::new(cfg.mem_budget);
    let mut block = SegmentBlock::default();
    let mut block_charged = 0u64;
    let mut scratch = SigScratch::default();
    let mut sigs: Vec<Signature> = Vec::new();

    // Pass 1: size. Count postings exactly as the spill pass will emit
    // them, and reject ids outside the SetId domain.
    let t0 = Instant::now();
    let mut total_sigs = 0u64;
    let mut total_sets = 0u64;
    let mut total_elems = 0u64;
    for idx in 0..segment.blocks().len() {
        segment.read_block(idx, &mut block)?;
        charge_high_water(
            &mut budget,
            &mut block_charged,
            block.approx_bytes(),
            "block",
        )?;
        for i in 0..block.len() {
            total_sets += 1;
            total_elems += block.set(i).len() as u64;
            if u32::try_from(block.id(i)).is_err() {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "segment id {} exceeds the u32 set-id domain; \
                         recompact with dense ids before joining",
                        block.id(i)
                    ),
                ));
            }
            sigs.clear();
            scheme.signatures_scratch(block.set(i), &mut scratch, &mut sigs);
            sigs.sort_unstable();
            sigs.dedup();
            total_sigs += sigs.len() as u64;
        }
    }
    stats.signatures = total_sigs;
    stats.sig_secs = t0.elapsed().as_secs_f64();

    // Partition count: the probe's buffers get half the budget; one
    // partition's worst case is total/P × PROBE_BYTES_PER_POSTING.
    let index_budget = (cfg.mem_budget / 2).max(1);
    let want = total_sigs
        .saturating_mul(PROBE_BYTES_PER_POSTING)
        .div_ceil(index_budget);
    let partitions = want
        .clamp(1, MAX_PARTITIONS)
        .max(cfg.min_partitions.min(MAX_PARTITIONS as usize) as u64) as usize;
    stats.partitions = partitions;

    // Slot table, charged up front at its exact deterministic size: the
    // ids column always, and with the bitmap filter the bitmap rows and
    // lengths too (width from the Pass-1 mean set size). A budget too tight
    // for the bitmaps degrades the filter to off — counted, never an error.
    let sets = total_sets as usize;
    let mut table_charge = total_sets.saturating_mul(SLOT_ID_BYTES);
    let mut words_per_set = None;
    if cfg.bitmap_filter && !pred.is_weighted() && total_sets > 0 {
        let wps = BitmapIndex::words_for_mean(total_elems as f64 / total_sets as f64);
        let charge = total_sets.saturating_mul(bitmap_set_bytes(wps));
        if budget.charge(charge).is_ok() {
            table_charge = charge;
            words_per_set = Some(wps);
        } else {
            stats.bitmap_degraded = true;
        }
    }
    if words_per_set.is_none() {
        budget
            .charge(table_charge)
            .map_err(|e| io::Error::other(format!("slot table: {e}")))?;
    }
    let mut table = SlotTable::with_capacity(sets, words_per_set);

    // Pass 2: spill. Batch buffers are charged for the whole pass.
    let t1 = Instant::now();
    let spill_dir = match &cfg.spill_dir {
        Some(d) => d.clone(),
        None => std::env::temp_dir().join(format!(
            "ssj_extern_spill_{}_{}",
            std::process::id(),
            SPILL_DIR_SALT.fetch_add(1, Ordering::Relaxed)
        )),
    };
    std::fs::create_dir_all(&spill_dir)?;
    let batch_bytes = (cfg.mem_budget / (4 * partitions as u64)).clamp(1 << 10, 64 << 10) as usize;
    let batch_charge = (partitions * spill_batch_capacity(batch_bytes)) as u64;
    budget
        .charge(batch_charge)
        .map_err(|e| io::Error::other(format!("spill batches: {e}")))?;
    let spill_result = (|| -> io::Result<(Vec<u64>, u64)> {
        let mut writer = SpillWriter::create_at(&spill_dir, partitions, batch_bytes)?;
        for idx in 0..segment.blocks().len() {
            segment.read_block(idx, &mut block)?;
            charge_high_water(
                &mut budget,
                &mut block_charged,
                block.approx_bytes(),
                "block",
            )?;
            for i in 0..block.len() {
                let slot = table.push(block.id(i) as SetId, block.set(i));
                sigs.clear();
                scheme.signatures_scratch(block.set(i), &mut scratch, &mut sigs);
                sigs.sort_unstable();
                sigs.dedup();
                for &sig in &sigs {
                    writer.push(partition_of(sig, partitions), sig, slot)?;
                }
            }
        }
        writer.seal()
    })();
    let (part_records, spill_bytes) = match spill_result {
        Ok(v) => v,
        Err(e) => {
            let _ = remove_partitions(&spill_dir, partitions);
            return Err(e);
        }
    };
    budget.release(batch_charge);
    stats.spilled_records = part_records.iter().sum();
    stats.spill_bytes = spill_bytes;
    stats.spill_secs = t1.elapsed().as_secs_f64();

    // Pass 3: probe. The spill files are removed on every exit path.
    let t2 = Instant::now();
    let probed = probe_partitions(&spill_dir, &part_records, sets, &mut budget, &mut stats);
    let removed = remove_partitions(&spill_dir, partitions);
    let (offsets, partners) = probed?;
    removed?;
    stats.probe_secs = t2.elapsed().as_secs_f64();

    // Pass 4: verify, slot by slot. The block cache gets half the
    // remaining budget as its eviction cap and is charged at its
    // (monotone) high water.
    let t3 = Instant::now();
    let cache_cap = (budget.remaining() / 2).max(64 << 10);
    let mut cache = BlockCache::new(cache_cap);
    let mut cache_charged = 0u64;
    let mut buf_a: Vec<u32> = Vec::new();
    let mut buf_b: Vec<u32> = Vec::new();
    let mut out: Vec<(SetId, SetId)> = Vec::new();
    let ids = &table.ids;
    for a in 0..sets {
        let mut fetched_a = false;
        for &b in &partners[offsets[a]..offsets[a + 1]] {
            let b = b as usize;
            if let Some(bitmaps) = &table.bitmaps {
                let (la, lb) = (table.lens[a] as usize, table.lens[b] as usize);
                if let Some(required) = pred.required_overlap(la, lb) {
                    if required > 0 && bitmaps.bound(a, b, la, lb) < required {
                        stats.bitmap_pruned += 1;
                        continue;
                    }
                }
                stats.bitmap_survivors += 1;
            }
            if !fetched_a {
                if !segment.lookup(u64::from(ids[a]), &mut cache, &mut buf_a)? {
                    return Err(missing_candidate(ids[a]));
                }
                fetched_a = true;
            }
            if !segment.lookup(u64::from(ids[b]), &mut cache, &mut buf_b)? {
                return Err(missing_candidate(ids[b]));
            }
            charge_high_water(
                &mut budget,
                &mut cache_charged,
                cache.used_bytes(),
                "block cache",
            )?;
            if pred.evaluate(&buf_a, &buf_b, weights) {
                out.push((ids[a], ids[b]));
            }
        }
    }
    drop(table);
    budget.release(table_charge);
    stats.output_pairs = out.len() as u64;
    stats.verify_secs = t3.elapsed().as_secs_f64();
    stats.peak_bytes = budget.peak();
    Ok((out, stats))
}

fn missing_candidate(id: u32) -> io::Error {
    io::Error::new(
        ErrorKind::InvalidData,
        format!("candidate set {id} vanished from the segment it was generated from"),
    )
}

fn spill_mismatch(part: usize, what: &str) -> io::Error {
    io::Error::new(
        ErrorKind::InvalidData,
        format!("spill partition {part} {what}"),
    )
}
