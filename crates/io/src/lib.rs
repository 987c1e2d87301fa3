//! # ssj-io — compact binary persistence
//!
//! A small, dependency-free binary format for [`SetCollection`]s and
//! [`WeightMap`]s, so tokenized corpora can be prepared once and reloaded
//! fast: sorted element lists are delta-encoded as LEB128 varints
//! ([`varint`]).
//!
//! ```
//! use ssj_core::set::SetCollection;
//!
//! let collection: SetCollection =
//!     vec![vec![3, 1, 4], vec![1, 5]].into_iter().collect();
//! let bytes = ssj_io::collection_to_bytes(&collection).unwrap();
//! let back = ssj_io::collection_from_bytes(&bytes).unwrap();
//! assert_eq!(back.len(), 2);
//! assert_eq!(back.set(0), &[1, 3, 4]);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod crc;
pub mod frame;
pub mod fs;
pub mod fswitness;
pub mod json;
pub mod varint;

use ssj_core::set::{SetCollection, WeightMap};
use std::io::{self, Read, Write};
use std::path::Path;
use varint::{read_varint, write_varint};

/// File magic for collections ("SSJC" + format version 1).
const COLLECTION_MAGIC: [u8; 5] = *b"SSJC\x01";
/// File magic for weight maps ("SSJW" + format version 1).
const WEIGHTS_MAGIC: [u8; 5] = *b"SSJW\x01";

fn expect_magic(input: &mut impl Read, magic: &[u8; 5], what: &str) -> io::Result<()> {
    let mut got = [0u8; 5];
    input.read_exact(&mut got)?;
    if &got != magic {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not a {what} file (bad magic/version)"),
        ));
    }
    Ok(())
}

/// Serializes a collection: per set, the length then delta-encoded sorted
/// elements (first element absolute).
pub fn write_collection(out: &mut impl Write, collection: &SetCollection) -> io::Result<()> {
    out.write_all(&COLLECTION_MAGIC)?;
    write_varint(out, collection.len() as u64)?;
    for (_, set) in collection.iter() {
        write_varint(out, set.len() as u64)?;
        let mut prev = 0u64;
        for (i, &e) in set.iter().enumerate() {
            let e = e as u64;
            if i == 0 {
                write_varint(out, e)?;
            } else {
                // Strictly sorted ⇒ delta ≥ 1; store delta − 1.
                write_varint(out, e - prev - 1)?;
            }
            prev = e;
        }
    }
    Ok(())
}

/// Deserializes a collection written by [`write_collection`].
fn read_collection(input: &mut impl Read) -> io::Result<SetCollection> {
    expect_magic(input, &COLLECTION_MAGIC, "set-collection")?;
    let count = read_varint(input)? as usize;
    let mut collection = SetCollection::with_capacity(count, count * 8);
    let mut buf: Vec<u32> = Vec::new();
    for _ in 0..count {
        let len = read_varint(input)? as usize;
        buf.clear();
        buf.reserve(len);
        let mut prev = 0u64;
        for i in 0..len {
            let delta = read_varint(input)?;
            let e = if i == 0 { delta } else { prev + delta + 1 };
            if e > u32::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "element exceeds the u32 domain",
                ));
            }
            buf.push(e as u32);
            prev = e;
        }
        collection.push_sorted(&buf);
    }
    Ok(collection)
}

/// Serializes a weight map: default weight, then `(element, weight)` pairs
/// sorted by element (weights as IEEE-754 bits).
pub fn write_weights(out: &mut impl Write, weights: &WeightMap) -> io::Result<()> {
    out.write_all(&WEIGHTS_MAGIC)?;
    out.write_all(&weights.default_weight().to_bits().to_le_bytes())?;
    let mut entries = weights.entries();
    entries.sort_unstable_by_key(|&(e, _)| e);
    write_varint(out, entries.len() as u64)?;
    let mut prev = 0u64;
    for (i, &(e, w)) in entries.iter().enumerate() {
        let e = e as u64;
        if i == 0 {
            write_varint(out, e)?;
        } else {
            write_varint(out, e - prev - 1)?;
        }
        prev = e;
        out.write_all(&w.to_bits().to_le_bytes())?;
    }
    Ok(())
}

/// Deserializes a weight map written by [`write_weights`].
pub fn read_weights(input: &mut impl Read) -> io::Result<WeightMap> {
    expect_magic(input, &WEIGHTS_MAGIC, "weight-map")?;
    let mut f64buf = [0u8; 8];
    input.read_exact(&mut f64buf)?;
    let default = f64::from_bits(u64::from_le_bytes(f64buf));
    let count = read_varint(input)? as usize;
    let mut map = WeightMap::new(default);
    let mut prev = 0u64;
    for i in 0..count {
        let delta = read_varint(input)?;
        let e = if i == 0 { delta } else { prev + delta + 1 };
        if e > u32::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "element out of range",
            ));
        }
        prev = e;
        input.read_exact(&mut f64buf)?;
        map.set(e as u32, f64::from_bits(u64::from_le_bytes(f64buf)));
    }
    Ok(map)
}

/// In-memory convenience: collection → bytes.
pub fn collection_to_bytes(collection: &SetCollection) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    write_collection(&mut out, collection)?;
    Ok(out)
}

/// In-memory convenience: bytes → collection.
pub fn collection_from_bytes(bytes: &[u8]) -> io::Result<SetCollection> {
    read_collection(&mut io::Cursor::new(bytes))
}

/// Saves a collection to a file (buffered).
pub fn save_collection(path: impl AsRef<Path>, collection: &SetCollection) -> io::Result<()> {
    #[expect(clippy::disallowed_methods, reason = "user output, not engine state")]
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write_collection(&mut out, collection)?;
    out.flush()
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests read raw files")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_simple() {
        let c: SetCollection = vec![vec![1, 2, 3], vec![], vec![100, 2_000_000_000, u32::MAX]]
            .into_iter()
            .collect();
        let bytes = collection_to_bytes(&c).unwrap();
        let back = collection_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for id in 0..3u32 {
            assert_eq!(back.set(id), c.set(id));
        }
    }

    #[test]
    fn empty_collection_roundtrips() {
        let c = SetCollection::new();
        let back = collection_from_bytes(&collection_to_bytes(&c).unwrap()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = collection_from_bytes(b"NOPE\x01").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_rejected() {
        let c: SetCollection = vec![vec![1, 2, 3, 4, 5]].into_iter().collect();
        let bytes = collection_to_bytes(&c).unwrap();
        for cut in 1..bytes.len() {
            assert!(
                collection_from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn delta_encoding_is_compact() {
        // 1000 sets of 12 small-ish tokens: well under 4 bytes/element.
        let mut rng = StdRng::seed_from_u64(1);
        let c: SetCollection = (0..1000)
            .map(|_| {
                (0..12)
                    .map(|_| rng.gen_range(0..100_000u32))
                    .collect::<Vec<_>>()
            })
            .collect();
        let bytes = collection_to_bytes(&c).unwrap();
        let raw = c.total_elements() * 4;
        assert!(
            bytes.len() < raw,
            "encoded {} bytes vs raw {} bytes",
            bytes.len(),
            raw
        );
    }

    #[test]
    fn weights_roundtrip() {
        let mut w = WeightMap::new(0.25);
        w.set(1, 1.5);
        w.set(100, 2.75);
        w.set(u32::MAX, -3.0);
        let mut bytes = Vec::new();
        write_weights(&mut bytes, &w).unwrap();
        let back = read_weights(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.default_weight(), 0.25);
        assert_eq!(back.weight(1), 1.5);
        assert_eq!(back.weight(100), 2.75);
        assert_eq!(back.weight(u32::MAX), -3.0);
        assert_eq!(back.weight(7), 0.25);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ssj_io_test_{}", std::process::id()));
        let c: SetCollection = vec![vec![5, 10, 15]].into_iter().collect();
        save_collection(&path, &c).unwrap();
        let back = collection_from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.set(0), &[5, 10, 15]);
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_collections(
            sets in prop::collection::vec(
                prop::collection::vec(any::<u32>(), 0..40),
                0..60,
            )
        ) {
            let c: SetCollection = sets.into_iter().collect();
            let bytes = collection_to_bytes(&c).unwrap();
            let back = collection_from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.len(), c.len());
            for id in 0..c.len() as u32 {
                prop_assert_eq!(back.set(id), c.set(id));
            }
        }
    }
}
