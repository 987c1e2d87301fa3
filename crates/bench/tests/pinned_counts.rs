//! Pins the seed-deterministic counters of a small jaccard self-join.
//!
//! 2 000 address-token sets, γ = 0.8, one thread, seed 42: PartEnum (PEN)
//! and the prefix filter (PF) through the reproduction harness, and the
//! out-of-core executor (EXT) under a 512 KiB budget. Every value below
//! depends only on the inputs and the seed, so an engine change that
//! moves one — more signatures, a weaker filter, a different spill plan —
//! fails here. Update a value only together with the change that explains
//! it.

use ssj_bench::datasets::address_tokens;
use ssj_bench::harness::{run_jaccard, JaccardAlgo};
use ssj_core::partenum::GeneralPartEnum;
use ssj_core::predicate::Predicate;
use ssj_core::set::SetCollection;
use ssj_extern::{external_self_join, write_collection_segment, ExternConfig, Segment};

const SETS: usize = 2_000;
const GAMMA: f64 = 0.8;
const SEED: u64 = 42;

/// The join counters every cell reports.
#[derive(Debug, PartialEq)]
struct Counts {
    signatures: u64,
    candidates: u64,
    f2: u64,
    output_pairs: u64,
    bitmap_pruned: u64,
    bitmap_survivors: u64,
}

/// The spill counters only the EXT cell reports.
#[derive(Debug, PartialEq)]
struct Spill {
    partitions: usize,
    peak_bytes: u64,
    spilled_records: u64,
    spill_bytes: u64,
}

fn in_memory(collection: &SetCollection, algo: JaccardAlgo) -> Counts {
    let (result, _) = run_jaccard(collection, GAMMA, algo, 1, SEED);
    let s = &result.stats;
    Counts {
        signatures: s.total_signatures(),
        candidates: s.candidate_pairs,
        f2: s.f2(),
        output_pairs: s.output_pairs,
        bitmap_pruned: s.bitmap_pruned,
        bitmap_survivors: s.bitmap_survivors,
    }
}

#[test]
fn partenum_counts_are_pinned() {
    assert_eq!(
        in_memory(&address_tokens(SETS), JaccardAlgo::Pen),
        Counts {
            signatures: 10_634,
            candidates: 13_210,
            f2: 34_844,
            output_pairs: 156,
            bitmap_pruned: 13_045,
            bitmap_survivors: 165,
        }
    );
}

#[test]
fn prefix_filter_counts_are_pinned() {
    assert_eq!(
        in_memory(&address_tokens(SETS), JaccardAlgo::Pf),
        Counts {
            signatures: 10_150,
            candidates: 3_421,
            f2: 26_171,
            output_pairs: 156,
            bitmap_pruned: 3_255,
            bitmap_survivors: 166,
        }
    );
}

#[test]
fn external_counts_are_pinned() {
    let collection = address_tokens(SETS);
    let pred = Predicate::Jaccard { gamma: GAMMA };
    let scheme =
        GeneralPartEnum::new(pred, collection.max_set_len(), SEED).expect("valid jaccard scheme");
    let path = std::env::temp_dir().join(format!("pinned_counts_{}.seg", std::process::id()));
    write_collection_segment(&path, &collection, 0).expect("segment written");
    let mut segment = Segment::open_path(&path).expect("segment opens");
    let cfg = ExternConfig {
        mem_budget: 512 << 10,
        ..Default::default()
    };
    let joined = external_self_join(&mut segment, &scheme, pred, None, &cfg);
    std::fs::remove_file(&path).ok();
    let (_, stats) = joined.expect("external join runs");

    assert_eq!(
        Counts {
            signatures: stats.signatures,
            candidates: stats.candidates,
            // A self-join counts the one input's signatures on both sides,
            // as `JoinStats::f2` does.
            f2: 2 * stats.signatures + stats.collisions,
            output_pairs: stats.output_pairs,
            bitmap_pruned: stats.bitmap_pruned,
            bitmap_survivors: stats.bitmap_survivors,
        },
        Counts {
            signatures: 21_252,
            candidates: 13_080,
            f2: 56_636,
            output_pairs: 156,
            bitmap_pruned: 12_911,
            bitmap_survivors: 169,
        }
    );
    assert_eq!(
        Spill {
            partitions: stats.partitions,
            peak_bytes: stats.peak_bytes,
            spilled_records: stats.spilled_records,
            spill_bytes: stats.spill_bytes,
        },
        Spill {
            partitions: 2,
            peak_bytes: 434_626,
            spilled_records: 21_252,
            spill_bytes: 242_951,
        }
    );
}
