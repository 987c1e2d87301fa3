//! The streaming external-join executor.
//!
//! Four passes over bounded memory (DESIGN.md §5h):
//!
//! 1. **Size** — stream the segment once, generating each set's
//!    signatures exactly as the in-memory driver does (sorted,
//!    deduplicated per set), to learn the total posting count and pick a
//!    partition count the budget can hold.
//! 2. **Spill** — stream again, hash-ranging every `(signature, id)`
//!    posting into its partition file ([`crate::spill`]). Every
//!    occurrence of a signature lands in the same partition.
//! 3. **Probe** — per partition: rebuild the posting map
//!    ([`ssj_core::SigPostings`]), enumerate bucket pairs with the
//!    zero-alloc [`probe_partition`] loop, and merge candidates with the
//!    same amortized global dedup the in-memory driver uses.
//! 4. **Verify** — walk the globally sorted candidate list, fetching
//!    sets back out of the segment through a budget-capped
//!    [`crate::segment::BlockCache`], and keep pairs the predicate
//!    accepts.
//!
//! Because per-set signature generation is identical, each signature's
//! full bucket is intact in exactly one partition, and the merged
//! candidate list is sorted before dedup, the output is byte-identical
//! to [`ssj_core::self_join`] — `cargo xtask difftest` pins this with a
//! dedicated spill-oracle column.

use crate::budget::MemBudget;
use crate::segment::{BlockCache, Segment, SegmentBlock};
use crate::spill::{partition_of, read_partition, remove_partitions, SpillWriter};
use ssj_core::predicate::Predicate;
use ssj_core::set::{SetId, WeightMap};
use ssj_core::signature::{SigScratch, Signature, SignatureScheme};
use ssj_core::verify::BitmapIndex;
use ssj_core::SigPostings;
use std::io::{self, ErrorKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Deterministic worst-case charge per spilled posting once it is loaded
/// into a [`SigPostings`] map (every signature distinct: one 48-byte
/// entry plus a 4-byte posting, rounded up). Partition sizing divides
/// the index half of the budget by this.
const POSTING_BYTES: u64 = 56;

/// Hard ceiling on partitions — beyond this, per-partition batch buffers
/// dominate and more fan-out stops helping.
const MAX_PARTITIONS: u64 = 4096;

/// Start the amortized candidate dedup at the same point the in-memory
/// driver does.
const DEDUP_AT: usize = 1 << 20;

static SPILL_DIR_SALT: AtomicU64 = AtomicU64::new(0);

/// Tuning for [`external_self_join`].
#[derive(Debug, Clone)]
pub struct ExternConfig {
    /// Hard byte budget for accounted resident memory.
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
    /// and degraded to off (never an error) when the table does not fit
    /// the memory budget.
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
    /// Distinct candidate pairs after the global dedup.
    pub candidates: u64,
    /// Candidates the bitmap table rejected before any segment read
    /// (0 when the filter is off, degraded, or the predicate is
    /// weighted). Deterministic: depends only on the candidate list.
    pub bitmap_pruned: u64,
    /// Candidates that passed the bitmap bound and went through the
    /// exact verify (`bitmap_pruned + bitmap_survivors = candidates`
    /// when the table was built).
    pub bitmap_survivors: u64,
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

/// Enumerates candidate pairs from one partition's posting map.
///
/// The hot loop of the external join (registered in hotlint's
/// `HOT_ROOTS`): for every bucket with ≥ 2 postings it pushes all
/// `id_i < id_j` pairs packed as `(a << 32) | b`, exactly like the
/// in-memory driver's bucket enumeration. Posting lists are ascending
/// by construction (spill pass streams ids in ascending segment order),
/// so `i < j` implies `id_i < id_j`. Returns the bucket collision count
/// Σ c·(c−1)/2. Steady-state allocation-free once `pairs` has warmed
/// (pinned by this crate's alloc witness).
pub fn probe_partition(postings: &SigPostings, pairs: &mut Vec<u64>) -> u64 {
    let mut collisions = 0u64;
    for list in postings.lists() {
        let c = list.len();
        if c < 2 {
            continue;
        }
        collisions += (c as u64) * (c as u64 - 1) / 2;
        for i in 0..c - 1 {
            let a = u64::from(list[i]) << 32;
            for &b in &list[i + 1..] {
                pairs.push(a | u64::from(b));
            }
        }
    }
    collisions
}

/// Deterministic per-set charge for the verify pass's bitmap table:
/// `words_per_set · 8` bitmap bytes plus the popcount (4), segment id
/// (4), and set length (4). Independent of allocator behavior, so
/// accounted peaks reproduce exactly.
fn bitmap_set_bytes(words_per_set: usize) -> u64 {
    words_per_set as u64 * 8 + 12
}

/// Per-set bitmaps keyed by (possibly sparse) segment id, built during
/// the spill pass's existing stream so the verify pass can reject
/// candidates *before* any block read (DESIGN.md §5i). Exact set lengths
/// ride along — the popcount bound needs them, and fetching them from
/// disk would defeat the point.
struct BitmapTable {
    /// Segment ids in ascending push order (the spill pass streams the
    /// segment in id order), so slot lookup is a binary search.
    ids: Vec<u32>,
    /// Exact (canonical) set lengths, parallel to `ids`.
    lens: Vec<u32>,
    bitmaps: BitmapIndex,
}

impl BitmapTable {
    fn with_capacity(words_per_set: usize, sets: usize) -> Self {
        let mut bitmaps = BitmapIndex::new(words_per_set);
        bitmaps.reserve(sets);
        Self {
            ids: Vec::with_capacity(sets),
            lens: Vec::with_capacity(sets),
            bitmaps,
        }
    }

    fn push(&mut self, id: u32, set: &[u32]) {
        debug_assert!(
            self.ids.last().is_none_or(|&prev| prev < id),
            "segment ids must arrive ascending for binary-search lookup"
        );
        self.ids.push(id);
        self.lens.push(set.len() as u32);
        self.bitmaps.push(set);
    }

    /// Sound upper bound on the overlap of candidate ids `a` and `b`,
    /// plus their exact lengths; `None` when either id is unknown (left
    /// for the exact path, which reports the missing set properly).
    fn bound(&self, a: u32, b: u32) -> Option<(usize, usize, usize)> {
        let sa = self.ids.binary_search(&a).ok()?;
        let sb = self.ids.binary_search(&b).ok()?;
        let (la, lb) = (self.lens[sa] as usize, self.lens[sb] as usize);
        Some((self.bitmaps.bound(sa, sb, la, lb), la, lb))
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

    // Partition count: posting maps get half the budget; one partition's
    // worst-case map is total/P × POSTING_BYTES.
    let index_budget = (cfg.mem_budget / 2).max(1);
    let want = total_sigs
        .saturating_mul(POSTING_BYTES)
        .div_ceil(index_budget);
    let partitions = want
        .clamp(1, MAX_PARTITIONS)
        .max(cfg.min_partitions.min(MAX_PARTITIONS as usize) as u64) as usize;
    stats.partitions = partitions;

    // Bitmap table: width from the Pass-1 mean set size, charged up front
    // at its exact deterministic size. A budget too tight for the table
    // degrades gracefully to the plain exact path — never an error.
    let mut table: Option<BitmapTable> = None;
    let mut bitmap_charge = 0u64;
    if cfg.bitmap_filter && !pred.is_weighted() && total_sets > 0 {
        let wps = BitmapIndex::words_for_mean(total_elems as f64 / total_sets as f64);
        let charge = total_sets.saturating_mul(bitmap_set_bytes(wps));
        if budget.charge(charge).is_ok() {
            bitmap_charge = charge;
            table = Some(BitmapTable::with_capacity(wps, total_sets as usize));
        }
    }

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
    let batch_charge = (partitions * batch_bytes) as u64;
    budget
        .charge(batch_charge)
        .map_err(|e| io::Error::other(format!("spill batches: {e}")))?;
    let spill_result = (|| -> io::Result<(u64, u64)> {
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
                let id = block.id(i) as SetId;
                if let Some(t) = table.as_mut() {
                    t.push(id, block.set(i));
                }
                sigs.clear();
                scheme.signatures_scratch(block.set(i), &mut scratch, &mut sigs);
                sigs.sort_unstable();
                sigs.dedup();
                for &sig in &sigs {
                    writer.push(partition_of(sig, partitions), sig, id)?;
                }
            }
        }
        writer.seal()
    })();
    let (spilled_records, spill_bytes) = match spill_result {
        Ok(v) => v,
        Err(e) => {
            let _ = remove_partitions(&spill_dir, partitions);
            return Err(e);
        }
    };
    budget.release(batch_charge);
    stats.spilled_records = spilled_records;
    stats.spill_bytes = spill_bytes;
    stats.spill_secs = t1.elapsed().as_secs_f64();

    // Passes 3 and 4 share the spill files; make sure they are removed on
    // every exit path.
    let run = |budget: &mut MemBudget, stats: &mut ExternStats| -> io::Result<Vec<u64>> {
        // Pass 3: probe one partition at a time.
        let t2 = Instant::now();
        let mut postings = SigPostings::new();
        let mut postings_charged = 0u64;
        let mut pairs: Vec<u64> = Vec::new();
        let mut dedup_at = DEDUP_AT;
        let mut collisions = 0u64;
        for part in 0..partitions {
            postings.clear();
            let path = spill_dir.join(crate::spill::partition_file_name(part));
            read_partition(&path, &mut postings)?;
            charge_high_water(
                budget,
                &mut postings_charged,
                postings.approx_bytes(),
                "postings",
            )?;
            collisions += probe_partition(&postings, &mut pairs);
            if pairs.len() >= dedup_at {
                pairs.sort_unstable();
                pairs.dedup();
                dedup_at = (pairs.len() * 2).max(DEDUP_AT);
            }
        }
        drop(postings);
        budget.release(postings_charged);
        pairs.sort_unstable();
        pairs.dedup();
        stats.collisions = collisions;
        stats.candidates = pairs.len() as u64;
        stats.probe_secs = t2.elapsed().as_secs_f64();
        Ok(pairs)
    };
    let pairs = match run(&mut budget, &mut stats) {
        Ok(p) => p,
        Err(e) => {
            let _ = remove_partitions(&spill_dir, partitions);
            return Err(e);
        }
    };
    remove_partitions(&spill_dir, partitions)?;

    // Pass 4: verify. The block cache gets half the remaining budget as
    // its eviction cap and is charged at its (monotone) high water.
    let t3 = Instant::now();
    let cache_cap = (budget.remaining() / 2).max(64 << 10);
    let mut cache = BlockCache::new(cache_cap);
    let mut cache_charged = 0u64;
    let mut buf_a: Vec<u32> = Vec::new();
    let mut buf_b: Vec<u32> = Vec::new();
    let mut cur_a: Option<u32> = None;
    let mut out: Vec<(SetId, SetId)> = Vec::new();
    for &packed in &pairs {
        let a = (packed >> 32) as u32;
        let b = packed as u32;
        if let Some(t) = &table {
            if let Some((bound, la, lb)) = t.bound(a, b) {
                if let Some(required) = pred.required_overlap(la, lb) {
                    if required > 0 && bound < required {
                        stats.bitmap_pruned += 1;
                        continue;
                    }
                }
            }
            stats.bitmap_survivors += 1;
        }
        if cur_a != Some(a) {
            if !segment.lookup(u64::from(a), &mut cache, &mut buf_a)? {
                return Err(missing_candidate(a));
            }
            cur_a = Some(a);
        }
        if !segment.lookup(u64::from(b), &mut cache, &mut buf_b)? {
            return Err(missing_candidate(b));
        }
        charge_high_water(
            &mut budget,
            &mut cache_charged,
            cache.used_bytes(),
            "block cache",
        )?;
        if pred.evaluate(&buf_a, &buf_b, weights) {
            out.push((a, b));
        }
    }
    drop(table);
    budget.release(bitmap_charge);
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
