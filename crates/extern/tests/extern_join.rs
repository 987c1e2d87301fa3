//! End-to-end parity: the out-of-core executor must produce results
//! byte-identical to the in-memory driver — same pairs, same collision
//! and candidate counters — at any partition count, while respecting its
//! memory budget. `cargo xtask difftest` sweeps this across 100 seeds;
//! this test pins the invariant at unit-test scale with explicit
//! configurations.

use ssj_core::set::SetCollection;
use ssj_core::{self_join, JoinOptions, PartEnumJaccard, Predicate};
use ssj_datagen::{generate_uniform, UniformConfig};
use ssj_extern::{external_self_join, write_collection_segment, ExternConfig, Segment};
use ssj_store::segment::{write_segment, SegmentStamp};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NAME_SALT: AtomicU64 = AtomicU64::new(0);

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ssj_extjoin_{tag}_{}_{}.seg",
        std::process::id(),
        NAME_SALT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn workload(seed: u64) -> SetCollection {
    generate_uniform(UniformConfig {
        base_sets: 250,
        set_size: 14,
        domain: 400,
        similar_fraction: 0.3,
        planted_similarity: 0.9,
        seed,
    })
}

fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ssj_extjoin_spill_{tag}_{}_{}",
        std::process::id(),
        NAME_SALT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Segment id of the `i`-th of `n` sets in the gapped-id segment: `7·i + 3`,
/// except the last set, which sits at the top of the `u32` id domain.
fn gapped_id(i: u32, n: u32) -> u32 {
    if i + 1 == n {
        u32::MAX
    } else {
        7 * i + 3
    }
}

/// Writes `collection` as a segment whose ids are [`gapped_id`]s rather
/// than `0..n`, so no set's slot equals its id.
fn write_gapped_segment(path: &std::path::Path, collection: &SetCollection) {
    let n = collection.len() as u32;
    let stamp = SegmentStamp {
        shard: 0,
        shard_count: 1,
        seq: 0,
        next_id: u64::from(u32::MAX) + 1,
    };
    let sets = collection
        .iter()
        .map(|(i, set)| (u64::from(gapped_id(i, n)), set));
    write_segment(path, 256, stamp, sets).expect("write segment");
}

#[test]
fn partitioned_join_matches_in_memory_exactly() {
    let gamma = 0.8;
    let collection = workload(0xE17);
    let scheme =
        PartEnumJaccard::new(gamma, collection.max_set_len().max(16), 5).expect("valid gamma");
    let pred = Predicate::Jaccard { gamma };

    let expected = self_join(&scheme, &collection, pred, None, JoinOptions::sequential());
    assert!(
        !expected.pairs.is_empty(),
        "workload must produce matches for the parity check to bite"
    );
    let n = collection.len() as u32;
    let gapped_pairs: Vec<_> = expected
        .pairs
        .iter()
        .map(|&(a, b)| (gapped_id(a, n), gapped_id(b, n)))
        .collect();

    let dense = tmp_path("parity");
    write_collection_segment(&dense, &collection, 256).expect("write segment");
    let gapped = tmp_path("gapped");
    write_gapped_segment(&gapped, &collection);

    for (path, want) in [(&dense, &expected.pairs), (&gapped, &gapped_pairs)] {
        for min_partitions in [1usize, 2, 7] {
            for bitmap_filter in [true, false] {
                let mut seg = Segment::open_path(path).expect("open segment");
                let cfg = ExternConfig {
                    mem_budget: u64::MAX,
                    min_partitions,
                    spill_dir: Some(spill_dir("parity")),
                    bitmap_filter,
                };
                let (pairs, stats) =
                    external_self_join(&mut seg, &scheme, pred, None, &cfg).expect("external join");
                let at = format!(
                    "{} at min_partitions={min_partitions}, bitmap_filter={bitmap_filter}",
                    path.display()
                );
                assert_eq!(&pairs, want, "pairs diverged for {at}");
                assert!(stats.partitions >= min_partitions);
                assert_eq!(stats.signatures, expected.stats.signatures_r);
                assert_eq!(
                    stats.collisions, expected.stats.signature_collisions,
                    "collision counter must be partition-invariant ({at})"
                );
                assert_eq!(stats.candidates, expected.stats.candidate_pairs, "{at}");
                assert_eq!(stats.output_pairs, expected.stats.output_pairs, "{at}");
            }
        }
    }
    std::fs::remove_file(&dense).ok();
    std::fs::remove_file(&gapped).ok();
}

#[test]
fn tight_budget_forces_partitions_and_bounds_peak() {
    let gamma = 0.75;
    let collection = workload(0xB4D9E7);
    let scheme =
        PartEnumJaccard::new(gamma, collection.max_set_len().max(16), 5).expect("valid gamma");
    let pred = Predicate::Jaccard { gamma };
    let expected = self_join(&scheme, &collection, pred, None, JoinOptions::sequential());

    let path = tmp_path("budget");
    write_collection_segment(&path, &collection, 0).expect("write segment");

    // Small enough that one partition's probe buffers cannot hold everything,
    // large enough for the per-block and batch floors.
    let budget = 128 << 10;
    let mut seg = Segment::open_path(&path).expect("open segment");
    let cfg = ExternConfig {
        mem_budget: budget,
        min_partitions: 1,
        spill_dir: Some(spill_dir("budget")),
        ..Default::default()
    };
    let (pairs, stats) =
        external_self_join(&mut seg, &scheme, pred, None, &cfg).expect("external join");
    assert_eq!(pairs, expected.pairs, "budgeted run must stay exact");
    assert!(
        stats.partitions > 1,
        "budget {budget} should have forced multiple partitions, got {}",
        stats.partitions
    );
    assert!(
        stats.peak_bytes <= budget,
        "accounted peak {} exceeds budget {budget}",
        stats.peak_bytes
    );
    assert!(stats.spilled_records == stats.signatures);
    assert!(stats.spill_bytes > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn impossible_budget_fails_loudly_instead_of_overrunning() {
    let collection = workload(0x71E);
    let scheme =
        PartEnumJaccard::new(0.8, collection.max_set_len().max(16), 5).expect("valid gamma");
    let path = tmp_path("impossible");
    write_collection_segment(&path, &collection, 0).expect("write segment");
    let mut seg = Segment::open_path(&path).expect("open segment");
    let cfg = ExternConfig {
        mem_budget: 1 << 10, // 1 KiB: below even one decoded block
        min_partitions: 1,
        spill_dir: Some(spill_dir("impossible")),
        ..Default::default()
    };
    let err = external_self_join(
        &mut seg,
        &scheme,
        Predicate::Jaccard { gamma: 0.8 },
        None,
        &cfg,
    )
    .expect_err("1 KiB budget must be rejected");
    assert!(
        err.to_string().contains("memory budget exceeded"),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn bitmap_filter_is_transparent_and_counted() {
    let gamma = 0.8;
    let collection = workload(0xB17);
    let scheme =
        PartEnumJaccard::new(gamma, collection.max_set_len().max(16), 5).expect("valid gamma");
    let pred = Predicate::Jaccard { gamma };
    let path = tmp_path("bitmap");
    write_collection_segment(&path, &collection, 0).expect("write segment");

    let run = |on: bool| {
        let mut seg = Segment::open_path(&path).expect("open segment");
        let cfg = ExternConfig {
            min_partitions: 3,
            spill_dir: Some(spill_dir("bitmap")),
            bitmap_filter: on,
            ..Default::default()
        };
        external_self_join(&mut seg, &scheme, pred, None, &cfg).expect("external join")
    };
    let (on_pairs, on_stats) = run(true);
    let (off_pairs, off_stats) = run(false);
    assert_eq!(on_pairs, off_pairs, "bitmap filter must not change output");
    assert_eq!(on_stats.candidates, off_stats.candidates);
    assert_eq!(
        on_stats.bitmap_pruned + on_stats.bitmap_survivors,
        on_stats.candidates,
        "every candidate is either pruned or exactly verified"
    );
    assert!(
        on_stats.bitmap_pruned > 0,
        "workload should exercise the pruning branch"
    );
    assert_eq!(off_stats.bitmap_pruned, 0);
    assert_eq!(off_stats.bitmap_survivors, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn budget_too_tight_for_the_bitmap_table_degrades_visibly() {
    // Wide sets (4-word bitmaps, 44 B per set in the table) and many of
    // them, in small blocks: the table outweighs what the rest of the join
    // needs at the budget below.
    let gamma = 0.8;
    let collection = generate_uniform(UniformConfig {
        base_sets: 2_500,
        set_size: 50,
        domain: 20_000,
        similar_fraction: 0.3,
        planted_similarity: 0.9,
        seed: 0xDE6,
    });
    let scheme =
        PartEnumJaccard::new(gamma, collection.max_set_len().max(16), 5).expect("valid gamma");
    let pred = Predicate::Jaccard { gamma };
    let expected = self_join(&scheme, &collection, pred, None, JoinOptions::sequential());
    assert!(!expected.pairs.is_empty());
    let path = tmp_path("degraded");
    write_collection_segment(&path, &collection, 256).expect("write segment");

    let run = |mem_budget: u64| {
        let mut seg = Segment::open_path(&path).expect("open segment");
        let cfg = ExternConfig {
            mem_budget,
            spill_dir: Some(spill_dir("degraded")),
            ..Default::default()
        };
        external_self_join(&mut seg, &scheme, pred, None, &cfg).expect("external join")
    };
    // Roomy: the table fits and the filter runs.
    let (_, roomy) = run(u64::MAX);
    assert!(!roomy.bitmap_degraded);
    assert!(roomy.bitmap_pruned > 0);

    // The join fits in 120 KiB, but the 143 000-byte bitmap table does not.
    let budget = 120 << 10;
    let (pairs, stats) = run(budget);
    assert!(
        stats.bitmap_degraded,
        "a {budget}-byte budget should be too tight for the bitmap table"
    );
    assert_eq!(pairs, expected.pairs, "the degraded run must stay exact");
    assert_eq!(stats.candidates, expected.stats.candidate_pairs);
    assert_eq!(stats.bitmap_pruned, 0);
    assert_eq!(stats.bitmap_survivors, 0);
    assert!(stats.peak_bytes <= budget);
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_and_degenerate_inputs_round_trip() {
    let scheme = PartEnumJaccard::new(0.8, 16, 5).expect("valid gamma");
    let pred = Predicate::Jaccard { gamma: 0.8 };

    // Empty collection: no blocks, no candidates, no pairs.
    let empty = SetCollection::new();
    let path = tmp_path("empty");
    write_collection_segment(&path, &empty, 0).expect("write empty segment");
    let mut seg = Segment::open_path(&path).expect("open empty segment");
    let (pairs, stats) =
        external_self_join(&mut seg, &scheme, pred, None, &ExternConfig::default())
            .expect("empty join");
    assert!(pairs.is_empty());
    assert_eq!(stats.signatures, 0);
    assert_eq!(stats.candidates, 0);
    std::fs::remove_file(&path).ok();

    // Duplicate sets: every duplicate pair must be found.
    let mut dups = SetCollection::new();
    for _ in 0..4 {
        dups.push(vec![1, 2, 3, 4, 5]);
    }
    let path = tmp_path("dups");
    write_collection_segment(&path, &dups, 0).expect("write dup segment");
    let mut seg = Segment::open_path(&path).expect("open dup segment");
    let (pairs, _) = external_self_join(&mut seg, &scheme, pred, None, &ExternConfig::default())
        .expect("dup join");
    let expected = self_join(&scheme, &dups, pred, None, JoinOptions::sequential());
    assert_eq!(pairs, expected.pairs);
    assert_eq!(pairs.len(), 6, "4 identical sets yield C(4,2) pairs");
    std::fs::remove_file(&path).ok();
}
