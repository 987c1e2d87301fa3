//! Fixture: every hotlint rule fires at a pinned line, and malformed
//! annotations are themselves findings (and suppress nothing).

fn verify_pairs_into(pairs: &[u64]) -> usize {
    let mut out = Vec::new();
    for &p in pairs {
        let tmp = vec![p];
        out.push(tmp.len());
    }
    out.push(helper(pairs).to_vec().len());
    let owned = pairs.to_owned();
    out.len() + owned.len()
}

fn helper(pairs: &[u64]) -> &[u64] {
    pairs
}

fn query(corpus: &Corpus) -> usize {
    let lookup = &corpus.ids;
    flush(corpus);
    lookup.len()
}

fn flush(corpus: &Corpus) {
    let _ = corpus.file.sync_all();
}

fn signatures_into(set: &[u32], out: &mut Vec<u64>) {
    // hotlint: allow(hot-fast): no such rule — must be an annotation finding.
    // hotlint: allow(hot-scratch):
    let extra = set.to_vec();
    // hotlint: allow(hot-scratch): names the wrong rule for the line below, so it must not suppress it.
    out.push(extra.len() as u64 + set.to_vec().len() as u64);
}
