//! Explicit memory-budget accounting for the out-of-core executor.
//!
//! The executor never asks the allocator how much it used: every
//! long-lived buffer (decoded block, slot table, spill batches, the
//! probe's record buffer and runs, verification block cache) is
//! *charged* against a ledger with a size computed deterministically from
//! element counts. That makes the
//! reported peak exactly reproducible run-to-run — `ssj-bench`'s
//! `pinned_counts` test asserts it exactly — and makes "the accounted
//! resident set stays within the budget" a checkable invariant rather
//! than a hope.
//!
//! What is deliberately **not** charged (documented in DESIGN.md §5h):
//! the probe pass's partner lists (4 B per bucket collision plus an 8 B
//! offset per set), the same arrays the in-memory driver holds, the
//! output pair vector, and transient per-frame
//! decode buffers bounded by the spill batch size.

use std::io;

/// A byte ledger with a hard limit.
///
/// [`MemBudget::charge`] fails — it never silently overruns — so a
/// workload too skewed for its budget (e.g. one partition whose records
/// alone exceed the limit) surfaces as an error instead of quietly
/// blowing past the bound it promised to respect.
#[derive(Debug, Clone)]
pub struct MemBudget {
    limit: u64,
    used: u64,
    peak: u64,
}

impl MemBudget {
    /// A ledger enforcing `limit` bytes (`u64::MAX` ≈ unlimited).
    pub fn new(limit: u64) -> Self {
        Self {
            limit,
            used: 0,
            peak: 0,
        }
    }

    /// Records `bytes` of new resident usage; errors without recording
    /// when the limit would be exceeded.
    pub fn charge(&mut self, bytes: u64) -> io::Result<()> {
        let next = self.used.saturating_add(bytes);
        if next > self.limit {
            return Err(io::Error::other(format!(
                "memory budget exceeded: {} in use + {} requested > {} budget \
                 (workload too skewed for this budget; raise --mem-budget)",
                self.used, bytes, self.limit
            )));
        }
        self.used = next;
        self.peak = self.peak.max(next);
        Ok(())
    }

    /// Returns `bytes` to the ledger (a freed or shrunk buffer).
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Currently charged bytes.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of charged bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Bytes still chargeable.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used)
    }
}

/// Parses a human-friendly byte count: a plain integer, optionally with
/// a `k`/`m`/`g` suffix (case-insensitive, powers of 1024). Used by
/// `ssjoin join --mem-budget`.
pub fn parse_mem_budget(text: &str) -> Result<u64, String> {
    let trimmed = text.trim();
    let (digits, shift) = match trimmed.char_indices().last() {
        Some((i, 'k' | 'K')) => (&trimmed[..i], 10),
        Some((i, 'm' | 'M')) => (&trimmed[..i], 20),
        Some((i, 'g' | 'G')) => (&trimmed[..i], 30),
        _ => (trimmed, 0),
    };
    let base: u64 = digits
        .parse()
        .map_err(|_| format!("bad byte count {text:?} (expected e.g. 67108864, 64m, 2g)"))?;
    base.checked_shl(shift)
        .filter(|&v| v >> shift == base && v > 0)
        .ok_or_else(|| format!("byte count {text:?} is zero or overflows"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_peak_and_enforces_limit() {
        let mut b = MemBudget::new(100);
        b.charge(60).unwrap();
        b.charge(30).unwrap();
        assert_eq!(b.used(), 90);
        assert!(b.charge(11).is_err(), "over-limit charge must fail");
        assert_eq!(b.used(), 90, "failed charge records nothing");
        b.release(50);
        assert_eq!(b.used(), 40);
        b.charge(55).unwrap();
        assert_eq!(b.peak(), 95);
        assert_eq!(b.remaining(), 5);
    }

    #[test]
    fn parses_budget_suffixes() {
        assert_eq!(parse_mem_budget("1234"), Ok(1234));
        assert_eq!(parse_mem_budget("64k"), Ok(64 << 10));
        assert_eq!(parse_mem_budget("64K"), Ok(64 << 10));
        assert_eq!(parse_mem_budget("3m"), Ok(3 << 20));
        assert_eq!(parse_mem_budget("2G"), Ok(2 << 30));
        assert!(parse_mem_budget("0").is_err());
        assert!(parse_mem_budget("").is_err());
        assert!(parse_mem_budget("12q").is_err());
        assert!(parse_mem_budget("999999999999g").is_err());
    }
}
