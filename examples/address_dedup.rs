//! Data-cleaning scenario (the paper's motivating application): detect
//! duplicate address records that differ by typos and formatting, using an
//! exact jaccard SSJoin over token sets, then group matches into clusters.
//!
//! ```text
//! cargo run --release --example address_dedup
//! ```

use ssjoin::datagen::{generate_addresses, AddressConfig};
use ssjoin::prelude::*;
use ssjoin::text::token_set;

/// Union-find over record ids, to turn matched pairs into clusters.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, x: u32) -> u32 {
        if self.parent[x as usize] != x {
            let root = self.find(self.parent[x as usize]);
            self.parent[x as usize] = root;
        }
        self.parent[x as usize]
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

fn main() {
    // 4,000 clean records + 1,000 noisy duplicates.
    let records = generate_addresses(AddressConfig {
        base_records: 4_000,
        duplicate_fraction: 0.25,
        max_typos: 2,
        drop_token_prob: 0.2,
        seed: 7,
    });
    println!(
        "{} address records (1,000 are noisy duplicates)",
        records.len()
    );

    let collection: SetCollection = records.iter().map(|s| token_set(s, 0xdedb)).collect();

    let gamma = 0.75;
    let scheme = PartEnumJaccard::new(gamma, collection.max_set_len(), 7).expect("0 < gamma <= 1");
    let result = self_join(
        &scheme,
        &collection,
        Predicate::Jaccard { gamma },
        None,
        JoinOptions::parallel(4),
    );
    println!(
        "join at jaccard >= {gamma}: {} candidate pairs -> {} matches \
         ({:.1}% filter precision), {:.2}s",
        result.stats.candidate_pairs,
        result.stats.output_pairs,
        100.0 * result.stats.precision(),
        result.stats.total_secs(),
    );

    // Cluster the matches.
    let mut dsu = Dsu::new(records.len());
    for &(a, b) in &result.pairs {
        dsu.union(a, b);
    }
    let mut clusters: ssjoin::core::hash::FxHashMap<u32, Vec<u32>> = Default::default();
    for id in 0..records.len() as u32 {
        clusters.entry(dsu.find(id)).or_default().push(id);
    }
    let mut multi: Vec<&Vec<u32>> = clusters.values().filter(|c| c.len() > 1).collect();
    multi.sort_by_key(|c| std::cmp::Reverse(c.len()));

    println!("\n{} duplicate clusters; three examples:", multi.len());
    for cluster in multi.iter().take(3) {
        println!("  cluster:");
        for &id in cluster.iter() {
            println!("    [{id}] {}", records[id as usize]);
        }
    }
    assert!(!multi.is_empty(), "planted duplicates must be found");
}
