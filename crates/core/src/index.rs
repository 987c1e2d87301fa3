//! An incremental similarity index over a signature scheme.
//!
//! Section 9 observes that "general similarity joins are closely related to
//! proximity search, where the goal is to retrieve, given a lookup object,
//! the closest object from a given collection ... We have not yet explored
//! if our signature schemes would be applicable to proximity search." This
//! module explores exactly that: an inverted index from signatures to set
//! ids supporting incremental inserts, deletions, and verified lookups —
//! which also yields streaming deduplication (query-then-insert) for free.
//!
//! Exactness carries over directly: if the scheme guarantees that joining
//! pairs share a signature, a query probes every bucket of its own
//! signatures and therefore sees every indexed set it joins with.

use crate::cast::usize_of_u64;
use crate::hash::{FxHashMap, FxHashSet};
use crate::predicate::Predicate;
use crate::set::{ElementId, SetCollection, SetId, WeightMap};
use crate::signature::{SigScratch, Signature, SignatureScheme};
use crate::verify::{write_bitmap, BitmapIndex, MAX_BITMAP_WORDS};
use std::sync::Arc;

/// Bitmap stride for the incremental serve index: 128 bits per set. Batch
/// joins auto-size from the collection mean, but an incremental index fixes
/// its width at construction (sets arrive one at a time), so it takes the
/// middle rung of the ladder — wide enough for typical serve workloads,
/// cheap enough (16 bytes/set) to keep beside the postings.
const SERVE_BITMAP_WORDS: usize = 2;

/// Reusable buffers for the verified-lookup path (DESIGN.md §5g).
///
/// A query canonicalizes its input, generates signatures, sweeps postings
/// into a candidate list, and verifies — four growing buffers that would
/// otherwise be reallocated per query. Hot callers (the serving layer's
/// request path) hold one `QueryScratch` per calling thread and pass it
/// to [`SimilarityIndex::query_counted_scratch`] /
/// [`JaccardIndex::query_counted_scratch`]; construction is
/// allocation-free.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Canonicalized (sorted, deduplicated) query elements.
    sorted: Vec<ElementId>,
    /// Query signatures.
    sigs: Vec<Signature>,
    /// Unverified candidate ids.
    candidates: Vec<SetId>,
    /// Inner-index matches awaiting external-id translation
    /// ([`JaccardIndex`] only).
    inner_matches: Vec<SetId>,
    /// Scheme-internal temporaries.
    sig_scratch: SigScratch,
    /// Query bitmap for the point-query prune (only the index's stride is
    /// used; fixed-size so the scratch stays allocation-free).
    qwords: [u64; MAX_BITMAP_WORDS],
    /// Candidates the bitmap bound rejected in the most recent query.
    bitmap_pruned: usize,
}

impl QueryScratch {
    /// Candidates the bitmap filter pruned (bound below the required
    /// overlap, no exact merge) in the most recent query through this
    /// scratch. Feeds the serving layer's per-shard `bitmap_pruned`
    /// counter.
    pub fn last_bitmap_pruned(&self) -> usize {
        self.bitmap_pruned
    }
}

/// An inverted signature index over an owned, growing collection.
///
/// The scheme's hidden parameters are fixed at construction (Section 3.1),
/// so every insert and query uses the same signature function. The caller
/// must construct the scheme to cover the sizes it will index — e.g.
/// [`crate::partenum::PartEnumJaccard::new`] with a sufficient
/// `max_set_size`; see [`JaccardIndex`] for a wrapper that manages this
/// automatically.
pub struct SimilarityIndex<S: SignatureScheme> {
    scheme: S,
    pred: Predicate,
    weights: Option<Arc<WeightMap>>,
    sets: SetCollection,
    postings: FxHashMap<Signature, Vec<SetId>>,
    /// One 128-bit bitmap per stored set, pushed in id order beside the
    /// postings: point queries check the popcount bound before touching
    /// set storage (DESIGN.md §5i).
    bitmaps: BitmapIndex,
    deleted: FxHashSet<SetId>,
    sig_buf: Vec<Signature>,
}

impl<S: SignatureScheme> SimilarityIndex<S> {
    /// Creates an empty index. `weights` is required iff `pred` is weighted.
    pub fn new(scheme: S, pred: Predicate, weights: Option<Arc<WeightMap>>) -> Self {
        assert!(
            !pred.is_weighted() || weights.is_some(),
            "weighted predicate requires a WeightMap"
        );
        Self {
            scheme,
            pred,
            weights,
            sets: SetCollection::new(),
            postings: FxHashMap::default(),
            bitmaps: BitmapIndex::new(SERVE_BITMAP_WORDS),
            deleted: FxHashSet::default(),
            sig_buf: Vec::new(),
        }
    }

    /// Number of live (non-deleted) sets.
    pub fn len(&self) -> usize {
        self.sets.len() - self.deleted.len()
    }

    /// Whether the index holds no live sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The indexed set for an id (including deleted ones).
    pub fn set(&self, id: SetId) -> &[ElementId] {
        self.sets.set(id)
    }

    /// Inserts a set (sorted and deduplicated internally); returns its id.
    ///
    /// # Panics
    /// Asserts that the set is within the scheme's signable size range: a
    /// set the scheme cannot sign would be stored but invisible to queries,
    /// silently dropping pairs. Callers that take sizes from untrusted
    /// input use [`Self::try_insert`].
    pub fn insert(&mut self, elems: Vec<ElementId>) -> SetId {
        let id = self.sets.push(elems);
        self.bitmaps.push(self.sets.set(id));
        let len = self.sets.len_of(id);
        let in_range = match self.scheme.max_signable_len() {
            Some(max) => len <= max,
            None => true,
        };
        assert!(
            in_range,
            "set length {len} exceeds the scheme's signable range; use try_insert"
        );
        self.sig_buf.clear();
        self.scheme
            .signatures_into(self.sets.set(id), &mut self.sig_buf);
        self.sig_buf.sort_unstable();
        self.sig_buf.dedup();
        for &sig in &self.sig_buf {
            self.postings.entry(sig).or_default().push(id);
        }
        id
    }

    /// Fallible [`Self::insert`]: rejects a set beyond the scheme's
    /// signable size range with [`crate::error::SsjError::SizeOutOfRange`]
    /// instead of panicking, leaving the index untouched. This is the form
    /// the serving layer uses, where set sizes arrive from untrusted
    /// clients.
    pub fn try_insert(&mut self, elems: Vec<ElementId>) -> crate::error::Result<SetId> {
        let mut elems = elems;
        elems.sort_unstable();
        elems.dedup();
        if let Some(max) = self.scheme.max_signable_len() {
            if elems.len() > max {
                return Err(crate::error::SsjError::SizeOutOfRange {
                    size: elems.len(),
                    max,
                });
            }
        }
        Ok(self.insert(elems))
    }

    /// Marks a set deleted (it stops appearing in query results).
    pub fn remove(&mut self, id: SetId) {
        assert!((id as usize) < self.sets.len(), "unknown id {id}");
        self.deleted.insert(id);
    }

    /// Like [`Self::remove`], but returns `false` for unknown or
    /// already-deleted ids instead of panicking — the form the serving
    /// layer uses, where ids arrive from untrusted clients.
    pub fn try_remove(&mut self, id: SetId) -> bool {
        if (id as usize) >= self.sets.len() {
            return false;
        }
        self.deleted.insert(id)
    }

    /// Sweeps the query's signatures through the postings into `out`:
    /// deduplicated, sorted, unverified candidate ids. `sigs` and
    /// `sig_scratch` are reusable working buffers.
    fn candidates_into(
        &self,
        query: &[ElementId],
        sig_scratch: &mut SigScratch,
        sigs: &mut Vec<Signature>,
        out: &mut Vec<SetId>,
    ) {
        sigs.clear();
        self.scheme.signatures_scratch(query, sig_scratch, sigs);
        sigs.sort_unstable();
        sigs.dedup();
        out.clear();
        for sig in sigs.iter() {
            if let Some(ids) = self.postings.get(sig) {
                out.extend(ids.iter().copied().filter(|id| !self.deleted.contains(id)));
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Ids of indexed sets sharing at least one signature with `query`
    /// (unverified candidates), deduplicated and sorted.
    pub fn query_candidates(&self, query: &[ElementId]) -> Vec<SetId> {
        // hotlint: allow(hot-scratch, fn): convenience wrapper — hot callers reuse buffers through query_counted_scratch.
        let mut sigs = Vec::new();
        let mut out = Vec::new();
        self.candidates_into(query, &mut SigScratch::default(), &mut sigs, &mut out);
        out
    }

    /// Ids of indexed sets actually satisfying the predicate against `query`.
    pub fn query(&self, query: &[ElementId]) -> Vec<SetId> {
        self.query_counted(query).0
    }

    /// Verified lookup that also reports work done: the matching ids plus
    /// the number of candidates probed (sets sharing a signature with the
    /// query, before verification). Feeds the serving layer's per-shard
    /// `candidates_probed` counter.
    pub fn query_counted(&self, query: &[ElementId]) -> (Vec<SetId>, usize) {
        // hotlint: allow(hot-scratch, fn): convenience wrapper for tests and one-shot callers — hot paths thread QueryScratch through query_counted_scratch.
        let mut out = Vec::new();
        let probed = self.query_counted_scratch(query, &mut QueryScratch::default(), &mut out);
        (out, probed)
    }

    /// [`Self::query_counted`] with caller-provided buffers: clears `out`,
    /// fills it with the matching ids, and returns the number of candidates
    /// probed. Allocation-free once `scratch` and `out` have warmed up —
    /// this is the serving layer's steady-state read path (verified by the
    /// counting-allocator witness in `tests/alloc_witness.rs`).
    pub fn query_counted_scratch(
        &self,
        query: &[ElementId],
        scratch: &mut QueryScratch,
        out: &mut Vec<SetId>,
    ) -> usize {
        out.clear();
        scratch.bitmap_pruned = 0;
        scratch.sorted.clear();
        scratch.sorted.extend_from_slice(query);
        scratch.sorted.sort_unstable();
        scratch.sorted.dedup();
        let signable = match self.scheme.max_signable_len() {
            Some(max) => scratch.sorted.len() <= max,
            None => true,
        };
        if !signable {
            // The scheme cannot sign this query (it would emit no
            // signatures and silently match nothing): fall back to a
            // size-bounded linear scan, which stays exact.
            return self.scan_into(&scratch.sorted, out);
        }
        self.candidates_into(
            &scratch.sorted,
            &mut scratch.sig_scratch,
            &mut scratch.sigs,
            &mut scratch.candidates,
        );
        let probed = scratch.candidates.len();
        // Bitmap fast path: one query bitmap, then the popcount bound vs
        // each candidate's stored bitmap — pruned candidates never touch
        // set storage. `required_overlap` is necessary for the predicate,
        // so survivors are a superset of the true matches and the exact
        // evaluate below keeps results byte-identical.
        let wps = self.bitmaps.words_per_set();
        let q_len = scratch.sorted.len();
        let q_pop = write_bitmap(&scratch.sorted, &mut scratch.qwords[..wps]);
        let mut pruned = 0usize;
        for &id in scratch.candidates.iter() {
            let set_len = self.sets.len_of(id);
            if let Some(required) = self.pred.required_overlap(q_len, set_len) {
                if required > 0
                    && self.bitmaps.bound_vs(
                        &scratch.qwords[..wps],
                        q_pop,
                        q_len,
                        id as usize,
                        set_len,
                    ) < required
                {
                    pruned += 1;
                    continue;
                }
            }
            if self
                .pred
                .evaluate(&scratch.sorted, self.sets.set(id), self.weights.as_deref())
            {
                out.push(id);
            }
        }
        scratch.bitmap_pruned = pruned;
        probed
    }

    /// Size-bounded linear scan over live sets appending matches to `out`:
    /// the exact fallback for queries the scheme cannot sign. `sorted` must
    /// be canonical. Returns the number of sets probed.
    fn scan_into(&self, sorted: &[ElementId], out: &mut Vec<SetId>) -> usize {
        let (lo, hi) = self
            .pred
            .size_bounds(sorted.len())
            .unwrap_or((0, usize::MAX));
        let mut probed = 0usize;
        for (id, set) in self.sets.iter() {
            if self.deleted.contains(&id) {
                continue;
            }
            if set.len() < lo || set.len() > hi {
                continue;
            }
            probed += 1;
            if self.pred.evaluate(sorted, set, self.weights.as_deref()) {
                out.push(id);
            }
        }
        probed
    }

    /// Queries, then inserts — the streaming-deduplication primitive:
    /// returns the ids of existing near-duplicates and the new set's id.
    pub fn query_insert(&mut self, elems: Vec<ElementId>) -> (Vec<SetId>, SetId) {
        let mut sorted = elems;
        sorted.sort_unstable();
        sorted.dedup();
        let matches = self.query(&sorted);
        let id = self.insert(sorted);
        (matches, id)
    }
}

/// A jaccard similarity index that manages PartEnum's size coverage
/// automatically: when an inserted set exceeds the covered size range, the
/// scheme is rebuilt with doubled capacity and all live sets are re-signed
/// (amortized O(1) rebuilds per insert, like vector growth).
///
/// Ids returned by [`Self::insert`] / [`Self::query_insert`] are **stable**:
/// they survive capacity rebuilds and removals, so callers (the serving
/// layer in particular) can hold them indefinitely. Internally a slot table
/// maps each stable id to the current position in the rebuilt index.
///
/// ```
/// use ssj_core::index::JaccardIndex;
///
/// let mut index = JaccardIndex::new(0.8, 32, 7).unwrap();
/// let a = index.insert(vec![1, 2, 3, 4, 5]);
/// index.insert(vec![10, 11, 12]);
/// // Js({1..5}, {1..6}) = 5/6 ≥ 0.8 → found; nothing else matches.
/// assert_eq!(index.query(&[1, 2, 3, 4, 5, 6]), vec![a]);
/// ```
pub struct JaccardIndex {
    gamma: f64,
    seed: u64,
    max_size: usize,
    inner: SimilarityIndex<crate::partenum::PartEnumJaccard>,
    /// Inner (collection) id → stable external id; aligned with `inner.sets`.
    externals: Vec<SetId>,
    /// Stable external id → current inner id; `None` once removed.
    slots: Vec<Option<SetId>>,
}

impl JaccardIndex {
    /// Creates an index for `Js ≥ gamma`, initially covering sets of up to
    /// `initial_max_size` elements.
    pub fn new(gamma: f64, initial_max_size: usize, seed: u64) -> crate::error::Result<Self> {
        let max_size = initial_max_size.max(16);
        let scheme = crate::partenum::PartEnumJaccard::new(gamma, max_size, seed)?;
        Ok(Self {
            gamma,
            seed,
            max_size,
            inner: SimilarityIndex::new(scheme, Predicate::Jaccard { gamma }, None),
            externals: Vec::new(),
            slots: Vec::new(),
        })
    }

    /// Number of live sets.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the index holds no live sets.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn ensure_capacity(&mut self, size: usize) {
        if size <= self.max_size {
            return;
        }
        let mut target = self.max_size;
        while target < size {
            target *= 2;
        }
        let Ok(scheme) = crate::partenum::PartEnumJaccard::new(self.gamma, target, self.seed)
        else {
            // `gamma` was validated when the index was created, so a failure
            // here would be a bug; growing coverage is an optimization, so
            // keep the current scheme rather than abort.
            debug_assert!(false, "scheme rebuild failed for validated gamma");
            return;
        };
        self.max_size = target;
        // Rebuild: re-sign every live set under the wider scheme. Stable
        // external ids are preserved — each live set keeps its id and only
        // its slot (inner position) changes.
        let rebuilt = SimilarityIndex::new(scheme, Predicate::Jaccard { gamma: self.gamma }, None);
        let old = std::mem::replace(&mut self.inner, rebuilt);
        let old_externals = std::mem::take(&mut self.externals);
        for id in 0..crate::cast::set_id(old.sets.len()) {
            if old.deleted.contains(&id) {
                continue;
            }
            let ext = old_externals[id as usize];
            let new_inner = self.inner.insert(old.sets.set(id).to_vec());
            self.slots[ext as usize] = Some(new_inner);
            self.externals.push(ext);
        }
    }

    /// Inserts a set; returns its stable id (valid across rebuilds, until
    /// removed).
    pub fn insert(&mut self, elems: Vec<ElementId>) -> SetId {
        let mut sorted = elems;
        sorted.sort_unstable();
        sorted.dedup();
        self.ensure_capacity(sorted.len());
        let inner_id = self.inner.insert(sorted);
        let ext = crate::cast::set_id(self.slots.len());
        self.slots.push(Some(inner_id));
        self.externals.push(ext);
        debug_assert_eq!(self.externals.len(), self.inner.sets.len());
        ext
    }

    /// Removes a set by stable id; returns `false` for unknown or
    /// already-removed ids. Removed ids are never reused.
    pub fn try_remove(&mut self, id: SetId) -> bool {
        let Some(slot) = self.slots.get_mut(id as usize) else {
            return false;
        };
        let Some(inner_id) = slot.take() else {
            return false;
        };
        self.inner.remove(inner_id);
        true
    }

    /// Removes a set by stable id; panics on unknown or already-removed
    /// ids (see [`Self::try_remove`] for the non-panicking form).
    pub fn remove(&mut self, id: SetId) {
        assert!(self.try_remove(id), "unknown or removed id {id}");
    }

    /// Verified lookup.
    pub fn query(&self, query: &[ElementId]) -> Vec<SetId> {
        self.query_counted(query).0
    }

    /// Verified lookup that also reports the number of candidates probed.
    pub fn query_counted(&self, query: &[ElementId]) -> (Vec<SetId>, usize) {
        // hotlint: allow(hot-scratch, fn): convenience wrapper for tests and one-shot callers — hot paths thread QueryScratch through query_counted_scratch.
        let mut out = Vec::new();
        let probed = self.query_counted_scratch(query, &mut QueryScratch::default(), &mut out);
        (out, probed)
    }

    /// [`Self::query_counted`] with caller-provided buffers: clears `out`,
    /// fills it with the matching stable ids (sorted), and returns the
    /// number of candidates probed. Allocation-free once the buffers have
    /// warmed up.
    pub fn query_counted_scratch(
        &self,
        query: &[ElementId],
        scratch: &mut QueryScratch,
        out: &mut Vec<SetId>,
    ) -> usize {
        if query.len() > self.max_size {
            // The scheme cannot sign a query beyond its covered size range
            // consistently; fall back to a size-bounded linear scan (rare —
            // only until the first insert of comparable size grows coverage).
            out.clear();
            scratch.bitmap_pruned = 0;
            scratch.sorted.clear();
            scratch.sorted.extend_from_slice(query);
            scratch.sorted.sort_unstable();
            scratch.sorted.dedup();
            let pred = Predicate::Jaccard { gamma: self.gamma };
            let (lo, hi) = pred
                .size_bounds(scratch.sorted.len())
                .unwrap_or((0, usize::MAX));
            let mut probed = 0usize;
            for id in 0..crate::cast::set_id(self.inner.sets.len()) {
                if self.inner.deleted.contains(&id) {
                    continue;
                }
                let len = self.inner.sets.len_of(id);
                if len < lo || len > hi {
                    continue;
                }
                probed += 1;
                if pred.evaluate(&scratch.sorted, self.inner.sets.set(id), None) {
                    out.push(self.externals[id as usize]);
                }
            }
            out.sort_unstable();
            return probed;
        }
        // `scratch.inner_matches` is taken out so `scratch` can be handed to
        // the inner index; restored below (no allocation, keeps the buffer
        // warm across queries).
        let mut inner_matches = std::mem::take(&mut scratch.inner_matches);
        let probed = self
            .inner
            .query_counted_scratch(query, scratch, &mut inner_matches);
        out.clear();
        out.extend(inner_matches.iter().map(|&id| self.externals[id as usize]));
        out.sort_unstable();
        scratch.inner_matches = inner_matches;
        probed
    }

    /// Streaming dedup: query then insert.
    pub fn query_insert(&mut self, elems: Vec<ElementId>) -> (Vec<SetId>, SetId) {
        let mut sorted = elems;
        sorted.sort_unstable();
        sorted.dedup();
        self.ensure_capacity(sorted.len());
        let (matches, _) = self.query_counted(&sorted);
        let id = self.insert(sorted);
        (matches, id)
    }

    /// The indexed set for a live stable id (`None` once removed, or for
    /// ids never issued).
    pub fn set(&self, id: SetId) -> Option<&[ElementId]> {
        let inner_id = (*self.slots.get(id as usize)?)?;
        Some(self.inner.set(inner_id))
    }

    /// The next stable id this index would issue (= count of ids issued so
    /// far, live or tombstoned). The persistence layer snapshots this so a
    /// restored index keeps issuing the same id sequence.
    pub fn next_id(&self) -> SetId {
        crate::cast::set_id(self.slots.len())
    }

    /// Every live `(stable id, canonical set)` pair, ascending by id, plus
    /// [`Self::next_id`] — the full logical state of the index (tombstoned
    /// ids are exactly the holes below `next_id`). This is what snapshots
    /// persist: tombstoned entries are dropped, not serialized.
    pub fn dump_live(&self) -> (SetId, Vec<(SetId, Vec<ElementId>)>) {
        let mut live = Vec::with_capacity(self.inner.len());
        for (ext, slot) in self.slots.iter().enumerate() {
            if let Some(inner_id) = slot {
                live.push((crate::cast::set_id(ext), self.inner.set(*inner_id).to_vec()));
            }
        }
        (self.next_id(), live)
    }

    /// Rebuilds an index from a [`Self::dump_live`]-shaped snapshot:
    /// `entries` must be strictly ascending by id with every id below
    /// `next_id`, and sets must be canonical (sorted, deduplicated — the
    /// form `dump_live` emits). Ids absent from `entries` become
    /// tombstones, so the restored index issues fresh ids from `next_id`
    /// exactly like the original did.
    pub fn restore(
        gamma: f64,
        initial_max_size: usize,
        seed: u64,
        next_id: SetId,
        entries: &[(SetId, Vec<ElementId>)],
    ) -> crate::error::Result<Self> {
        // Pre-size coverage to the largest snapshotted set so the restore
        // does one scheme build instead of O(log n) rebuild cascades.
        let largest = entries.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        let mut size = initial_max_size.max(16);
        while size < largest {
            size *= 2;
        }
        // `size` follows the same doubling sequence `ensure_capacity` uses,
        // so the restored scheme matches what the original grew into.
        let mut index = Self::new(gamma, size, seed)?;
        let mut pending = entries.iter().peekable();
        for ext in 0..next_id {
            match pending.peek() {
                Some(&&(id, ref set)) if id == ext => {
                    pending.next();
                    let issued = index.insert(set.clone());
                    debug_assert_eq!(issued, ext);
                }
                Some(&&(id, _)) if id < ext => {
                    return Err(crate::error::SsjError::InvalidParams(format!(
                        "snapshot entries not strictly ascending at id {id}"
                    )));
                }
                // A hole: this id was issued then tombstoned. Reserve the
                // slot without materializing the dead set.
                _ => index.slots.push(None),
            }
        }
        if let Some(&(id, _)) = pending.next() {
            return Err(crate::error::SsjError::InvalidParams(format!(
                "snapshot entry id {id} is not below next_id {next_id}"
            )));
        }
        Ok(index)
    }
}

/// Routes a canonical (sorted, deduplicated) set to one of `shards` buckets
/// by content hash.
///
/// The serving layer uses this to pick the shard that owns a set: the same
/// content always routes to the same shard regardless of insertion order or
/// shard-local state, and the mixed hash keeps shards balanced. `shards`
/// must be non-zero.
pub fn shard_of(set: &[ElementId], shards: usize, seed: u64) -> usize {
    assert!(shards > 0, "shard count must be non-zero");
    debug_assert!(
        set.windows(2).all(|w| w[0] < w[1]),
        "shard_of input must be sorted and deduplicated"
    );
    usize_of_u64(content_hash_of(set, seed) % (shards as u64))
}

/// The raw content hash underlying [`shard_of`], before bucket reduction.
///
/// Both the modulus placement ([`ContentHashPlacement`]) and ring-style
/// placements (ssj-cluster) reduce this same hash, so a set's routing key is
/// identical at every layer of the system.
pub fn content_hash_of(set: &[ElementId], seed: u64) -> u64 {
    let mut b = crate::hash::SigBuilder::new(seed ^ 0x5ead_0f5e_7b10_c4e1);
    for &e in set {
        b.push_u32(e);
    }
    b.finish()
}

/// Routing policy: which bucket owns a canonical (sorted, deduplicated) set.
///
/// Extracted from the serving layer's hard-coded content-hash modulus so the
/// same policy object serves every call site that must agree on ownership —
/// index build, write routing, and cluster-level node assignment. Two call
/// sites holding the *same* `Placement` value cannot desync; two call sites
/// recomputing a modulus from loose `(shards, seed)` pairs can.
pub trait Placement {
    /// Number of buckets sets are routed across. Always non-zero.
    fn buckets(&self) -> usize;
    /// The owning bucket for `set`, in `0..self.buckets()`.
    fn bucket_of(&self, set: &[ElementId]) -> usize;
}

/// The classic policy: content hash reduced by modulus over `shards` buckets.
///
/// Behaviourally identical to [`shard_of`] with the same `(shards, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentHashPlacement {
    shards: usize,
    seed: u64,
}

impl ContentHashPlacement {
    /// Builds the policy. `shards` must be non-zero.
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "shard count must be non-zero");
        Self { shards, seed }
    }

    /// The hash seed the policy mixes into every routing decision.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Placement for ContentHashPlacement {
    fn buckets(&self) -> usize {
        self.shards
    }

    fn bucket_of(&self, set: &[ElementId]) -> usize {
        shard_of(set, self.shards, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partenum::PartEnumJaccard;

    fn index(gamma: f64) -> SimilarityIndex<PartEnumJaccard> {
        let scheme = PartEnumJaccard::new(gamma, 64, 5).expect("valid gamma");
        SimilarityIndex::new(scheme, Predicate::Jaccard { gamma }, None)
    }

    #[test]
    fn insert_and_query_roundtrip() {
        let mut idx = index(0.8);
        let a = idx.insert(vec![1, 2, 3, 4, 5]);
        idx.insert(vec![10, 11, 12]);
        let hits = idx.query(&[1, 2, 3, 4, 5, 6]); // Js = 5/6 ≥ 0.8
        assert_eq!(hits, vec![a]);
        assert!(idx.query(&[20, 21]).is_empty());
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn query_accepts_unsorted_input() {
        let mut idx = index(0.9);
        let a = idx.insert(vec![5, 4, 3, 2, 1, 1]);
        assert_eq!(idx.query(&[5, 3, 1, 2, 4]), vec![a]);
    }

    #[test]
    fn remove_hides_sets() {
        let mut idx = index(0.8);
        let a = idx.insert(vec![1, 2, 3, 4, 5]);
        assert_eq!(idx.query(&[1, 2, 3, 4, 5]), vec![a]);
        idx.remove(a);
        assert!(idx.query(&[1, 2, 3, 4, 5]).is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.is_empty());
    }

    #[test]
    fn streaming_dedup_finds_prior_duplicates() {
        let mut idx = index(0.8);
        let stream: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 4, 5],
            vec![6, 7, 8],
            vec![1, 2, 3, 4, 5, 9], // dup of #0
            vec![6, 7, 8],          // dup of #1
        ];
        let mut dups = 0;
        for s in stream {
            let (matches, _) = idx.query_insert(s);
            dups += usize::from(!matches.is_empty());
        }
        assert_eq!(dups, 2);
    }

    #[test]
    fn index_matches_batch_join() {
        use crate::join::{self_join, JoinOptions};
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2);
        let sets: Vec<Vec<u32>> = (0..150)
            .map(|i| {
                let base = (i % 30) * 50;
                let len = rng.gen_range(5u32..15);
                (base..base + len).collect()
            })
            .collect();
        let gamma = 0.8;
        let collection: SetCollection = sets.iter().cloned().collect();
        let scheme = PartEnumJaccard::new(gamma, 64, 5).expect("valid gamma");
        let batch = self_join(
            &scheme,
            &collection,
            Predicate::Jaccard { gamma },
            None,
            JoinOptions::default(),
        );
        // Incremental: query each set against all previously inserted ones.
        let mut idx = index(gamma);
        let mut incremental: Vec<(u32, u32)> = Vec::new();
        for s in &sets {
            let (matches, id) = idx.query_insert(s.clone());
            for m in matches {
                incremental.push((m.min(id), m.max(id)));
            }
        }
        let mut a = batch.pairs;
        a.sort_unstable();
        incremental.sort_unstable();
        assert_eq!(a, incremental);
    }

    #[test]
    fn jaccard_index_grows_capacity() {
        let mut idx = JaccardIndex::new(0.8, 16, 3).expect("valid gamma");
        idx.insert((0..10).collect());
        // Insert something far beyond initial coverage → triggers rebuild.
        idx.insert((0..500).collect());
        assert_eq!(idx.len(), 2);
        let hits = idx.query(&(0..499).collect::<Vec<_>>()); // Js = 499/500
        assert_eq!(hits.len(), 1);
        let small_hits = idx.query(&(0..10).collect::<Vec<_>>());
        assert_eq!(small_hits.len(), 1);
    }

    #[test]
    fn jaccard_ids_stable_across_rebuilds() {
        let mut idx = JaccardIndex::new(0.8, 16, 3).expect("valid gamma");
        let a = idx.insert((0..10).collect());
        let b = idx.insert((100..110).collect());
        assert_eq!(idx.set(a), Some(&(0..10).collect::<Vec<_>>()[..]));
        // Trigger a capacity rebuild; previously-issued ids must survive.
        let big = idx.insert((0..500).collect());
        assert_eq!(idx.query(&(0..10).collect::<Vec<_>>()), vec![a]);
        assert_eq!(idx.query(&(100..110).collect::<Vec<_>>()), vec![b]);
        assert_eq!(idx.set(a), Some(&(0..10).collect::<Vec<_>>()[..]));
        assert_eq!(idx.set(b), Some(&(100..110).collect::<Vec<_>>()[..]));
        assert!(idx.set(big).is_some());
        assert!(a != b && b != big && a != big);
    }

    #[test]
    fn jaccard_remove_tombstones_across_rebuilds() {
        let mut idx = JaccardIndex::new(0.8, 16, 3).expect("valid gamma");
        let a = idx.insert((0..10).collect());
        assert!(idx.try_remove(a));
        assert!(!idx.try_remove(a), "second remove is a no-op");
        assert!(!idx.try_remove(9999), "unknown id is a no-op");
        assert_eq!(idx.set(a), None);
        assert!(idx.query(&(0..10).collect::<Vec<_>>()).is_empty());
        // A rebuild must not resurrect the removed set or reuse its id.
        let big = idx.insert((0..500).collect());
        assert_ne!(big, a);
        assert_eq!(idx.set(a), None);
        assert!(idx.query(&(0..10).collect::<Vec<_>>()).is_empty());
        // Re-inserting the same content yields a fresh, queryable id.
        let a2 = idx.insert((0..10).collect());
        assert_ne!(a2, a);
        assert_eq!(idx.query(&(0..10).collect::<Vec<_>>()), vec![a2]);
    }

    #[test]
    fn query_counted_reports_probed_candidates() {
        let mut idx = index(0.8);
        let a = idx.insert(vec![1, 2, 3, 4, 5]);
        idx.insert(vec![10, 11, 12]);
        let (matches, probed) = idx.query_counted(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(matches, vec![a]);
        assert!(probed >= matches.len());
        let mut jidx = JaccardIndex::new(0.8, 16, 3).expect("valid gamma");
        let ja = jidx.insert(vec![1, 2, 3, 4, 5]);
        let (jm, jp) = jidx.query_counted(&[1, 2, 3, 4, 5]);
        assert_eq!(jm, vec![ja]);
        assert!(jp >= 1);
        // Oversized query exercises the linear-scan fallback path.
        let (fm, fp) = jidx.query_counted(&(0..200).collect::<Vec<_>>());
        assert!(fm.is_empty());
        assert_eq!(fp, 0, "size filter excludes the only indexed set");
    }

    #[test]
    fn bitmap_prune_is_transparent_and_counted() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xb175e);
        let gamma = 0.5;
        let scheme = PartEnumJaccard::new(gamma, 64, 5).expect("valid gamma");
        let mut idx = SimilarityIndex::new(scheme, Predicate::Jaccard { gamma }, None);
        let sets: Vec<Vec<u32>> = (0..120)
            .map(|_| {
                let len = rng.gen_range(5..25);
                let mut s: Vec<u32> = (0..len).map(|_| rng.gen_range(0..64u32)).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        for s in &sets {
            idx.insert(s.clone());
        }
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        let mut total_pruned = 0usize;
        for q in &sets {
            let probed = idx.query_counted_scratch(q, &mut scratch, &mut out);
            assert!(scratch.last_bitmap_pruned() <= probed);
            total_pruned += scratch.last_bitmap_pruned();
            // Oracle: linear scan with the exact predicate — the bitmap
            // prune must never change what a query returns.
            let expect: Vec<SetId> = (0..crate::cast::set_id(idx.sets.len()))
                .filter(|&id| Predicate::Jaccard { gamma }.evaluate(q, idx.sets.set(id), None))
                .collect();
            assert_eq!(out, expect);
        }
        assert!(
            total_pruned > 0,
            "workload should exercise the prune branch"
        );
    }

    #[test]
    fn shard_routing_is_deterministic_and_balanced() {
        let set: Vec<u32> = vec![3, 9, 27];
        let s = shard_of(&set, 8, 42);
        assert!(s < 8);
        assert_eq!(s, shard_of(&set, 8, 42), "same content, same shard");
        assert_eq!(shard_of(&[], 5, 0), shard_of(&[], 5, 0));
        // Rough balance: 1000 singleton sets over 8 shards, each shard
        // should see a reasonable share (binomial tails make <50 per
        // shard astronomically unlikely).
        let mut counts = [0usize; 8];
        for e in 0..1000u32 {
            counts[shard_of(&[e], 8, 7)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 50), "{counts:?}");
    }

    #[test]
    fn content_hash_placement_matches_shard_of() {
        // The trait object and the free function are the same policy; any
        // divergence would desync build-time and serve-time routing.
        let p = ContentHashPlacement::new(8, 42);
        let boxed: Box<dyn Placement> = Box::new(p);
        for seed_set in 0..200u32 {
            let set: Vec<u32> = (0..seed_set % 7).map(|i| seed_set * 31 + i).collect();
            assert_eq!(boxed.bucket_of(&set), shard_of(&set, 8, 42));
            assert_eq!(
                shard_of(&set, 8, 42) as u64,
                content_hash_of(&set, 42) % 8,
                "shard_of must reduce content_hash_of"
            );
        }
        assert_eq!(boxed.buckets(), 8);
        assert_eq!(p.seed(), 42);
    }

    #[test]
    fn empty_sets_in_index() {
        let mut idx = index(0.8);
        let e1 = idx.insert(vec![]);
        idx.insert(vec![1]);
        assert_eq!(idx.query(&[]), vec![e1]);
    }

    #[test]
    fn oversized_inserts_and_queries_are_handled_cleanly() {
        // Scheme covers sizes up to ~16; a 100-element set is beyond it.
        let scheme = PartEnumJaccard::new(0.8, 16, 5).expect("valid gamma");
        let max = scheme.max_signable_len().expect("interval scheme");
        let mut idx = SimilarityIndex::new(scheme, Predicate::Jaccard { gamma: 0.8 }, None);
        let a = idx.insert((0..10).collect());
        // try_insert: clean error, index untouched.
        let err = idx
            .try_insert((0..100).collect())
            .expect_err("oversized insert");
        assert!(matches!(
            err,
            crate::error::SsjError::SizeOutOfRange { size: 100, .. }
        ));
        assert_eq!(idx.len(), 1);
        // In-range try_insert still works.
        let b = idx.try_insert((200..210).collect()).expect("in range");
        assert_eq!(idx.query(&(200..210).collect::<Vec<_>>()), vec![b]);
        // Oversized *query*: exact via the linear-scan fallback, not a
        // panic (this used to die inside SizeIntervals::interval_of).
        let big: Vec<u32> = (0..(max as u32 + 20)).collect();
        let (matches, _) = idx.query_counted(&big);
        assert!(matches.is_empty(), "no indexed set joins the big query");
        // A near-duplicate of an indexed set, but oversized: fallback must
        // still find nothing only if the predicate says so — build a case
        // where it *does* match. Insert is in range, query is not.
        let mut near: Vec<u32> = (0..10).collect();
        near.extend(10..(max as u32 + 5));
        let (m2, _) = idx.query_counted(&near);
        // Js({0..10}, {0..max+5}) is small, so still empty — but the call
        // must complete without panicking.
        assert!(m2.is_empty());
        let _ = a;
    }

    #[test]
    #[should_panic(expected = "signable range")]
    fn oversized_plain_insert_panics_with_clear_message() {
        let scheme = PartEnumJaccard::new(0.8, 16, 5).expect("valid gamma");
        let mut idx = SimilarityIndex::new(scheme, Predicate::Jaccard { gamma: 0.8 }, None);
        idx.insert((0..200).collect());
    }

    #[test]
    #[should_panic(expected = "WeightMap")]
    fn weighted_predicate_requires_weights() {
        let scheme = PartEnumJaccard::new(0.8, 16, 0).expect("valid gamma");
        SimilarityIndex::new(scheme, Predicate::WeightedJaccard { gamma: 0.8 }, None);
    }

    #[test]
    fn dump_restore_roundtrip_preserves_state_and_id_sequence() {
        let mut idx = JaccardIndex::new(0.8, 16, 3).expect("valid gamma");
        let a = idx.insert((0..10).collect());
        let b = idx.insert((100..110).collect());
        let c = idx.insert((200..210).collect());
        idx.remove(b); // tombstone in the middle
        let (next, live) = idx.dump_live();
        assert_eq!(next, 3);
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].0, a);
        assert_eq!(live[1].0, c);

        let restored = JaccardIndex::restore(0.8, 16, 3, next, &live).expect("restore");
        assert_eq!(restored.dump_live(), (next, live));
        assert_eq!(restored.set(a), idx.set(a));
        assert_eq!(restored.set(b), None, "tombstone survives the roundtrip");
        assert_eq!(restored.set(c), idx.set(c));
        assert_eq!(
            restored.query(&(0..10).collect::<Vec<_>>()),
            idx.query(&(0..10).collect::<Vec<_>>())
        );
        // Fresh ids continue from next_id, same as the original.
        let mut idx2 = restored;
        let d = idx2.insert(vec![7, 8, 9]);
        assert_eq!(d, 3);
    }

    #[test]
    fn restore_presizes_coverage_for_large_sets() {
        let mut idx = JaccardIndex::new(0.8, 16, 3).expect("valid gamma");
        let big = idx.insert((0..500).collect());
        let (next, live) = idx.dump_live();
        let restored = JaccardIndex::restore(0.8, 16, 3, next, &live).expect("restore");
        assert_eq!(restored.set(big), idx.set(big));
        assert_eq!(restored.query(&(0..499).collect::<Vec<_>>()), vec![big]);
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        // Entry id at/above next_id.
        let err = JaccardIndex::restore(0.8, 16, 3, 1, &[(1, vec![1, 2])]);
        assert!(err.is_err());
        // Out-of-order (duplicate) ids.
        let err = JaccardIndex::restore(0.8, 16, 3, 3, &[(1, vec![1]), (1, vec![2])]);
        assert!(err.is_err());
        // Empty snapshot with only tombstones is fine.
        let idx = JaccardIndex::restore(0.8, 16, 3, 5, &[]).expect("all-tombstone snapshot");
        assert_eq!(idx.next_id(), 5);
        assert!(idx.is_empty());
    }
}
