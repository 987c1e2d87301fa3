//! Synthetic US-style address data — the stand-in for the paper's
//! proprietary 1M-record address set (see DESIGN.md, "Data substitutions").
//!
//! Each record is "a concatenation of an organization name and address
//! (street, city, zip, state)" averaging ~11 whitespace tokens, with a
//! configurable fraction of near-duplicate records produced by the typo
//! model — the structure that drives the algorithms' behaviour: skewed
//! token frequencies (state/city names repeat; street numbers and org names
//! are rare) and clusters of highly similar records.

use crate::typo::{apply_typos, drop_token};
use rand::prelude::*;

const ORG_HEADS: &[&str] = &[
    "acme",
    "global",
    "pacific",
    "northern",
    "united",
    "premier",
    "summit",
    "cascade",
    "evergreen",
    "pioneer",
    "liberty",
    "capital",
    "coastal",
    "sterling",
    "golden",
    "crescent",
    "atlas",
    "beacon",
    "harbor",
    "vertex",
];

const ORG_CORES: &[&str] = &[
    "software",
    "logistics",
    "consulting",
    "manufacturing",
    "foods",
    "motors",
    "energy",
    "medical",
    "dental",
    "roofing",
    "plumbing",
    "electric",
    "marine",
    "textiles",
    "printing",
    "brewing",
    "optics",
    "robotics",
    "analytics",
    "holdings",
];

const ORG_TAILS: &[&str] = &[
    "inc", "llc", "corp", "co", "group", "ltd", "partners", "services",
];

const STREET_NAMES: &[&str] = &[
    "main",
    "oak",
    "pine",
    "maple",
    "cedar",
    "elm",
    "washington",
    "lake",
    "hill",
    "park",
    "river",
    "spring",
    "ridge",
    "sunset",
    "highland",
    "forest",
    "meadow",
    "walnut",
    "cherry",
    "spruce",
    "madison",
    "jefferson",
    "lincoln",
    "jackson",
    "franklin",
    "union",
    "church",
    "market",
    "broad",
    "center",
    "mill",
    "bridge",
    "water",
    "prospect",
    "pleasant",
    "chestnut",
    "willow",
    "birch",
    "dogwood",
    "magnolia",
];

const STREET_TYPES: &[&str] = &[
    "st", "ave", "blvd", "rd", "dr", "ln", "way", "ct", "pl", "pkwy",
];

const DIRECTIONS: &[&str] = &["n", "s", "e", "w", "ne", "nw", "se", "sw"];

/// `(city, state)` pairs; cities repeat across records, giving the skewed
/// token-frequency profile real address data has.
const CITIES: &[(&str, &str)] = &[
    ("seattle", "wa"),
    ("redmond", "wa"),
    ("bellevue", "wa"),
    ("tacoma", "wa"),
    ("spokane", "wa"),
    ("portland", "or"),
    ("salem", "or"),
    ("eugene", "or"),
    ("san francisco", "ca"),
    ("los angeles", "ca"),
    ("san diego", "ca"),
    ("sacramento", "ca"),
    ("palo alto", "ca"),
    ("santa barbara", "ca"),
    ("fresno", "ca"),
    ("phoenix", "az"),
    ("tucson", "az"),
    ("denver", "co"),
    ("boulder", "co"),
    ("austin", "tx"),
    ("dallas", "tx"),
    ("houston", "tx"),
    ("chicago", "il"),
    ("springfield", "il"),
    ("boston", "ma"),
    ("cambridge", "ma"),
    ("new york", "ny"),
    ("albany", "ny"),
    ("buffalo", "ny"),
    ("miami", "fl"),
    ("orlando", "fl"),
    ("tampa", "fl"),
    ("atlanta", "ga"),
    ("nashville", "tn"),
    ("memphis", "tn"),
    ("detroit", "mi"),
    ("minneapolis", "mn"),
    ("st paul", "mn"),
    ("kansas city", "mo"),
    ("st louis", "mo"),
];

/// Configuration for the address generator.
#[derive(Debug, Clone, Copy)]
pub struct AddressConfig {
    /// Number of *base* (clean) records.
    pub base_records: usize,
    /// Near-duplicates added per 1.0 of base (e.g. 0.25 → 25% extra records
    /// that are noisy copies of random base records).
    pub duplicate_fraction: f64,
    /// Character edits applied to each duplicate (1–3 typical).
    pub max_typos: usize,
    /// Probability a duplicate also drops a token (formatting error).
    pub drop_token_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AddressConfig {
    fn default() -> Self {
        Self {
            base_records: 10_000,
            duplicate_fraction: 0.25,
            max_typos: 2,
            drop_token_prob: 0.2,
            seed: 0xadd2,
        }
    }
}

/// Generates one clean address record (~11 tokens on average).
fn base_record(rng: &mut impl Rng) -> String {
    let org = match rng.gen_range(0..3) {
        0 => format!(
            "{} {} {}",
            ORG_HEADS.choose(rng).expect("non-empty"),
            ORG_CORES.choose(rng).expect("non-empty"),
            ORG_TAILS.choose(rng).expect("non-empty")
        ),
        1 => format!(
            "{} {} {} {}",
            ORG_HEADS.choose(rng).expect("non-empty"),
            ORG_HEADS.choose(rng).expect("non-empty"),
            ORG_CORES.choose(rng).expect("non-empty"),
            ORG_TAILS.choose(rng).expect("non-empty")
        ),
        _ => format!(
            "{} {}",
            ORG_CORES.choose(rng).expect("non-empty"),
            ORG_TAILS.choose(rng).expect("non-empty")
        ),
    };
    let number = rng.gen_range(1..20_000);
    // Half the streets are numbered ("148th ave ne") — the paper's
    // motivating example of small-but-crucial differences.
    let street = if rng.gen_bool(0.5) {
        let ord = rng.gen_range(1..250u32);
        let suffix = match ord % 10 {
            1 if ord % 100 != 11 => "st",
            2 if ord % 100 != 12 => "nd",
            3 if ord % 100 != 13 => "rd",
            _ => "th",
        };
        format!(
            "{ord}{suffix} {} {}",
            STREET_TYPES.choose(rng).expect("non-empty"),
            DIRECTIONS.choose(rng).expect("non-empty")
        )
    } else {
        format!(
            "{} {}",
            STREET_NAMES.choose(rng).expect("non-empty"),
            STREET_TYPES.choose(rng).expect("non-empty")
        )
    };
    let city_idx = rng.gen_range(0..CITIES.len());
    let (city, state) = CITIES[city_idx];
    // Zip coherent with the city, with some within-city spread.
    let zip = 10_000 + city_idx * 1_000 + rng.gen_range(0..40usize) * 7;
    format!("{org} {number} {street} {city} {state} {zip}")
}

/// Generates the full corpus: base records followed by noisy duplicates.
/// Deterministic in `config.seed`.
pub fn generate_addresses(config: AddressConfig) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out: Vec<String> = (0..config.base_records)
        .map(|_| base_record(&mut rng))
        .collect();
    let dups = (config.base_records as f64 * config.duplicate_fraction) as usize;
    for _ in 0..dups {
        let src = rng.gen_range(0..config.base_records);
        let mut s = out[src].clone();
        let typos = rng.gen_range(1..=config.max_typos.max(1));
        s = apply_typos(&s, typos, &mut rng);
        if rng.gen_bool(config.drop_token_prob) {
            s = drop_token(&s, &mut rng);
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = AddressConfig {
            base_records: 50,
            ..Default::default()
        };
        assert_eq!(generate_addresses(cfg), generate_addresses(cfg));
        let other = AddressConfig { seed: 1, ..cfg };
        assert_ne!(generate_addresses(cfg), generate_addresses(other));
    }

    #[test]
    fn record_count_includes_duplicates() {
        let cfg = AddressConfig {
            base_records: 100,
            duplicate_fraction: 0.25,
            ..Default::default()
        };
        assert_eq!(generate_addresses(cfg).len(), 125);
    }

    #[test]
    fn average_token_count_near_paper() {
        // The paper's address data averages 11 tokens per record.
        let cfg = AddressConfig {
            base_records: 2_000,
            ..Default::default()
        };
        let records = generate_addresses(cfg);
        let total: usize = records.iter().map(|r| r.split_whitespace().count()).sum();
        let avg = total as f64 / records.len() as f64;
        assert!((8.0..14.0).contains(&avg), "avg tokens = {avg}");
    }

    #[test]
    fn duplicates_are_near_their_source() {
        let cfg = AddressConfig {
            base_records: 200,
            duplicate_fraction: 0.5,
            max_typos: 1,
            drop_token_prob: 0.0,
            seed: 9,
        };
        let records = generate_addresses(cfg);
        // Every duplicate is within edit distance 2 of SOME base record
        // (one typo = ≤ 2 unit edits).
        for dup in &records[200..] {
            let close = records[..200]
                .iter()
                .any(|base| ssj_text::levenshtein(base, dup) <= 2);
            assert!(close, "duplicate {dup:?} is not near any base record");
        }
    }

    #[test]
    fn token_frequencies_are_skewed() {
        let cfg = AddressConfig {
            base_records: 3_000,
            ..Default::default()
        };
        let records = generate_addresses(cfg);
        let mut freq = ssj_core::hash::FxHashMap::default();
        for r in &records {
            for t in r.split_whitespace() {
                *freq.entry(t.to_string()).or_insert(0usize) += 1;
            }
        }
        let mut counts: Vec<usize> = freq.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Head token (a state abbreviation) orders of magnitude above median.
        let median = counts[counts.len() / 2];
        assert!(
            counts[0] > 20 * median,
            "head={} median={median}",
            counts[0]
        );
    }
}
