//! Runs and partner lists: the grouping and candidate layout both join
//! executors share.
//!
//! Step 3 of Figure 2 groups `(signature, set)` records by signature. Both
//! executors do it one way: sort the records, then walk the sorted runs
//! ([`Runs::walk_self_runs`], [`Runs::walk_cross_runs`]). The walk
//! merges any number of sorted chunks — the in-memory driver's per-worker
//! chunks ([`crate::join`](mod@crate::join)), or one spill partition in
//! `ssj-extern` — and keeps every run that holds a pair as a *bucket*: the
//! sets that share one signature, in ascending set order. Every two members of a bucket
//! collide; the join needs each distinct colliding pair once. Three steps
//! turn buckets into per-set partner lists without ever materialising a
//! pair:
//!
//! 1. **count** — every member's partner count (its higher members, or
//!    for an R–S bucket every S member) into `counts[set]`;
//! 2. a prefix sum turns the counts into list offsets, and **fill**
//!    writes every partner into one flat `SetId` array at its set's write
//!    cursor — 4 bytes per collision;
//! 3. **dedup** sorts each set's list in place and drops the repeats that
//!    pairs sharing several signatures leave behind.
//!
//! Set `a`'s distinct partners then sit ascending at
//! `partners[offsets[a]..offsets[a + 1]]`, so walking the sets in order
//! visits the candidates in ascending `(a, b)` order. The run walk, count
//! and fill are hotlint hot roots; with warmed buffers they allocate
//! nothing (pinned by `tests/alloc_witness.rs` here and in `ssj-extern`).

use crate::set::SetId;
use crate::signature::Signature;

/// One signature occurrence: `(signature, set)`. Sorted records group
/// equal signatures into runs whose members ascend.
pub type SigRecord = (Signature, SetId);

/// The buckets a run walk kept: bucket `i` is
/// `members[ends[i]..ends[i + 1]]` (`ends[0] = 0`). An R–S bucket takes
/// two consecutive ranges: its R members, then its S members.
#[derive(Debug)]
pub struct Runs {
    members: Vec<SetId>,
    ends: Vec<usize>,
}

impl Runs {
    /// Room for a self walk over `records` records without growing: each
    /// record is at most one member, and every kept run holds two or more.
    pub fn with_capacity(records: usize) -> Self {
        let mut ends = Vec::with_capacity(records / 2 + 1);
        ends.push(0);
        Self {
            members: Vec::with_capacity(records),
            ends,
        }
    }

    /// Bytes the two buffers hold: 4 per member slot, 8 per run end slot.
    pub fn capacity_bytes(&self) -> u64 {
        (self.members.capacity() * size_of::<SetId>() + self.ends.capacity() * size_of::<usize>())
            as u64
    }

    /// Drops every kept run, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.members.clear();
        self.ends.truncate(1);
    }

    /// Self-join walk: merges the sorted record chunks `heads` (each
    /// advanced to its end) and keeps every run of two or more equal
    /// signatures. Chunks must hold ascending set ranges in chunk order,
    /// so a run's members ascend.
    pub fn walk_self_runs(&mut self, heads: &mut [&[SigRecord]]) {
        while let Some(sig) = lowest_head_signature(heads) {
            let start = self.members.len();
            take_signature_run(heads, sig, &mut self.members);
            if self.members.len() - start >= 2 {
                self.ends.push(self.members.len());
            } else {
                self.members.truncate(start);
            }
        }
    }

    /// R–S walk: merges the sorted chunks of each side and keeps every
    /// signature present on both, as its R run then its S run.
    pub fn walk_cross_runs(&mut self, r: &mut [&[SigRecord]], s: &mut [&[SigRecord]]) {
        while let (Some(a), Some(b)) = (lowest_head_signature(r), lowest_head_signature(s)) {
            let sig = a.max(b);
            let start = self.members.len();
            take_signature_run(r, sig, &mut self.members);
            let mid = self.members.len();
            take_signature_run(s, sig, &mut self.members);
            if start < mid && mid < self.members.len() {
                self.ends.push(mid);
                self.ends.push(self.members.len());
            } else {
                self.members.truncate(start);
            }
        }
    }

    /// The kept runs of a self walk.
    pub fn self_buckets(&self) -> impl Iterator<Item = &[SetId]> + '_ {
        self.ends.windows(2).map(|w| &self.members[w[0]..w[1]])
    }

    /// The kept `(R members, S members)` runs of an R–S walk.
    pub fn cross_buckets(&self) -> impl Iterator<Item = (&[SetId], &[SetId])> + '_ {
        self.ends
            .windows(3)
            .step_by(2)
            .map(|w| (&self.members[w[0]..w[1]], &self.members[w[1]..w[2]]))
    }
}

/// The smallest signature at the front of any chunk.
#[inline]
fn lowest_head_signature(heads: &[&[SigRecord]]) -> Option<Signature> {
    heads
        .iter()
        .filter_map(|head| head.first())
        .map(|rec| rec.0)
        .min()
}

/// Advances every chunk past its records below `sig` and appends the sets
/// of its records at `sig` to `members`, chunk by chunk.
#[inline]
fn take_signature_run(heads: &mut [&[SigRecord]], sig: Signature, members: &mut Vec<SetId>) {
    for head in heads {
        let from = head.iter().take_while(|rec| rec.0 < sig).count();
        let to = from + head[from..].iter().take_while(|rec| rec.0 == sig).count();
        members.extend(head[from..to].iter().map(|&(_, set)| set));
        *head = &head[to..];
    }
}

/// Count step over self-join buckets: for every bucket, adds `c − 1 − i`
/// to the partner count of its `i`-th member (`counts[set]`), i.e. the
/// number of higher sets it collides with there. Buckets must be strictly
/// ascending, so member `i`'s partners are exactly the members after it.
///
/// Returns the bucket collision count Σ c·(c−1)/2, or `None` when a
/// bucket names a set outside `counts`.
pub fn count_bucket_partners<'a>(
    buckets: impl IntoIterator<Item = &'a [SetId]>,
    counts: &mut [usize],
) -> Option<u64> {
    let mut collisions = 0u64;
    for list in buckets {
        let c = list.len();
        if c < 2 {
            continue;
        }
        if list[c - 1] as usize >= counts.len() {
            return None;
        }
        collisions += (c as u64) * (c as u64 - 1) / 2;
        for (i, &set) in list.iter().enumerate() {
            counts[set as usize] += c - 1 - i;
        }
    }
    Some(collisions)
}

/// Fill step over self-join buckets: appends each member's higher
/// partners to its list in `partners`, at the write cursor
/// `cursors[set]`, and advances the cursor. With cursors starting at the
/// prefix sums of [`count_bucket_partners`]' counts, every list gets
/// exactly its counted room.
///
/// Returns the partners written (the buckets' collision count), which
/// the caller can check against the count step.
pub fn fill_bucket_partners<'a>(
    buckets: impl IntoIterator<Item = &'a [SetId]>,
    cursors: &mut [usize],
    partners: &mut [SetId],
) -> u64 {
    let mut written = 0u64;
    for list in buckets {
        let c = list.len();
        if c < 2 {
            continue;
        }
        written += (c as u64) * (c as u64 - 1) / 2;
        for i in 0..c - 1 {
            let cursor = &mut cursors[list[i] as usize];
            let higher = &list[i + 1..];
            partners[*cursor..*cursor + higher.len()].copy_from_slice(higher);
            *cursor += higher.len();
        }
    }
    written
}

/// Count step over R–S buckets `(r_members, s_members)`: every R member
/// collides with every S member of its bucket, so `counts[r]` grows by
/// the bucket's S size.
///
/// Returns the collision count Σ |R|·|S|, or `None` when a bucket names
/// an R set outside `counts`.
pub fn count_cross_partners<'a>(
    buckets: impl IntoIterator<Item = (&'a [SetId], &'a [SetId])>,
    counts: &mut [usize],
) -> Option<u64> {
    let mut collisions = 0u64;
    for (rs, ss) in buckets {
        if rs.last().is_some_and(|&r| r as usize >= counts.len()) {
            return None;
        }
        collisions += rs.len() as u64 * ss.len() as u64;
        for &r in rs {
            counts[r as usize] += ss.len();
        }
    }
    Some(collisions)
}

/// Fill step over R–S buckets: appends the bucket's S members to the
/// list of each of its R members, at the write cursor `cursors[r]`.
/// Returns the partners written.
pub fn fill_cross_partners<'a>(
    buckets: impl IntoIterator<Item = (&'a [SetId], &'a [SetId])>,
    cursors: &mut [usize],
    partners: &mut [SetId],
) -> u64 {
    let mut written = 0u64;
    for (rs, ss) in buckets {
        written += rs.len() as u64 * ss.len() as u64;
        for &r in rs {
            let cursor = &mut cursors[r as usize];
            partners[*cursor..*cursor + ss.len()].copy_from_slice(ss);
            *cursor += ss.len();
        }
    }
    written
}

/// Dedup step. On entry `ends[s]` is the end of set `s`'s list in
/// `partners` (lists are contiguous, in set order, starting at 0); each
/// list is sorted, deduplicated and compacted to the front. On exit
/// `ends` holds offsets: set `s`'s distinct partners are
/// `partners[ends[s]..ends[s + 1]]`, ascending. `ends` has one entry more
/// than there are sets; its last entry is overwritten with the distinct
/// total, which is also returned.
pub fn dedup_partner_lists(ends: &mut [usize], partners: &mut Vec<SetId>) -> usize {
    let sets = ends.len() - 1;
    let (mut start, mut write) = (0usize, 0usize);
    for end_slot in ends.iter_mut().take(sets) {
        let end = *end_slot;
        *end_slot = write;
        partners[start..end].sort_unstable();
        let mut last = None;
        for r in start..end {
            let b = partners[r];
            if last != Some(b) {
                partners[write] = b;
                write += 1;
                last = Some(b);
            }
        }
        start = end;
    }
    ends[sets] = write;
    partners.truncate(write);
    write
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Count → prefix sum → fill → dedup over `buckets`, as both
    /// executors run it.
    fn lists(buckets: &[&[SetId]], sets: usize) -> (Vec<usize>, Vec<SetId>, u64) {
        let mut offsets = vec![0usize; sets + 1];
        let collisions = count_bucket_partners(buckets.iter().copied(), &mut offsets[..sets])
            .expect("members in range");
        let mut total = 0;
        for o in offsets.iter_mut() {
            let count = *o;
            *o = total;
            total += count;
        }
        let mut partners = vec![0; total];
        let written =
            fill_bucket_partners(buckets.iter().copied(), &mut offsets[..sets], &mut partners);
        assert_eq!(written, collisions);
        dedup_partner_lists(&mut offsets, &mut partners);
        (offsets, partners, collisions)
    }

    #[test]
    fn self_buckets_yield_distinct_higher_partners() {
        // (0,2) shares two buckets; 1 is alone; 3 pairs with 0 and 2.
        let (offsets, partners, collisions) = lists(&[&[0, 2], &[0, 2, 3], &[1]], 4);
        assert_eq!(collisions, 1 + 3);
        assert_eq!(offsets, vec![0, 2, 2, 3, 3]);
        assert_eq!(partners, vec![2, 3, 3]);
    }

    #[test]
    fn out_of_range_member_is_reported() {
        let mut counts = vec![0usize; 2];
        assert_eq!(count_bucket_partners([&[0u32, 5][..]], &mut counts), None);
        assert_eq!(
            count_cross_partners([(&[4u32][..], &[0u32][..])], &mut counts),
            None
        );
    }

    #[test]
    fn cross_buckets_pair_every_r_with_every_s() {
        let buckets: [(&[SetId], &[SetId]); 2] = [(&[0, 1], &[3, 1]), (&[1], &[1])];
        let mut offsets = vec![0usize; 3];
        let collisions = count_cross_partners(buckets, &mut offsets[..2]).expect("in range");
        assert_eq!(collisions, 5);
        let mut total = 0;
        for o in offsets.iter_mut() {
            let count = *o;
            *o = total;
            total += count;
        }
        let mut partners = vec![0; total];
        assert_eq!(
            fill_cross_partners(buckets, &mut offsets[..2], &mut partners),
            5
        );
        assert_eq!(dedup_partner_lists(&mut offsets, &mut partners), 4);
        assert_eq!(offsets, vec![0, 2, 4]);
        assert_eq!(partners, vec![1, 3, 1, 3]);
    }
}
