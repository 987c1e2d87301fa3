//! Scheme runners and the naive ground-truth comparison.
//!
//! Every scheme run is wrapped in `catch_unwind`: a panic anywhere in the
//! join pipeline (including the debug-build completeness invariants and
//! worker threads) is reported as a divergence, not a harness crash.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use ssj_baselines::{IdentityScheme, LshJaccard, NaiveJoin, PrefixFilter, PrefixFilterConfig};
use ssj_core::hash::FxHashMap;
use ssj_core::join::{join, self_join, JoinOptions};
use ssj_core::partenum::{GeneralPartEnum, PartEnumHamming, PartEnumJaccard, PartEnumParams};
use ssj_core::predicate::Predicate;
use ssj_core::set::SetCollection;
use ssj_core::signature::SignatureScheme;
use ssj_core::wtenum::{WtEnum, WtEnumJaccard};
use ssj_datagen::AdversarialWorkload;
use ssj_serve::config::ServerConfig;
use ssj_serve::net::serve_connection;
use ssj_serve::service::Server;

use super::SchemeKind;

/// A scheme's verified pair set, or the panic message that killed the run.
pub type RunResult = Result<Vec<(u32, u32)>, String>;

/// The predicate a scheme kind is tested under for workload `w`.
pub fn predicate_of(kind: SchemeKind, w: &AdversarialWorkload) -> Predicate {
    match kind {
        SchemeKind::PeHamming => Predicate::Hamming { k: w.hamming_k },
        SchemeKind::PeJaccard
        | SchemeKind::GeneralJaccard
        | SchemeKind::Prefix
        | SchemeKind::Identity
        | SchemeKind::Lsh
        | SchemeKind::Serve
        | SchemeKind::Extern
        | SchemeKind::Cluster
        | SchemeKind::Binary => Predicate::Jaccard { gamma: w.gamma },
        SchemeKind::GeneralMaxFraction => Predicate::MaxFraction { gamma: w.gamma },
        SchemeKind::WtEnum => Predicate::WeightedOverlap { t: w.weighted_t },
        SchemeKind::WtEnumJaccard => Predicate::WeightedJaccard { gamma: w.gamma_w },
    }
}

/// Whether `kind` needs the workload's weight map.
fn weighted(kind: SchemeKind) -> bool {
    matches!(kind, SchemeKind::WtEnum | SchemeKind::WtEnumJaccard)
}

/// The binary column's R and S: the first two thirds and the last two
/// thirds of the workload's sets, so the middle third sits on both sides
/// (identical sets across R and S, and R–S pairs within it).
pub fn binary_halves(w: &AdversarialWorkload) -> (SetCollection, SetCollection) {
    let n = w.sets.len();
    let r = SetCollection::from_sets(w.sets[..(2 * n).div_ceil(3)].to_vec());
    let s = SetCollection::from_sets(w.sets[n / 3..].to_vec());
    (r, s)
}

/// Ground truth: the naive O(n²) join under `kind`'s predicate.
pub fn oracle_pairs(kind: SchemeKind, w: &AdversarialWorkload) -> Vec<(u32, u32)> {
    if kind == SchemeKind::Binary {
        let (r, s) = binary_halves(w);
        return NaiveJoin::join(&r, &s, predicate_of(kind, w), None);
    }
    let collection = w.collection();
    let weights = weighted(kind).then(|| w.weight_map());
    NaiveJoin::self_join(&collection, predicate_of(kind, w), weights.as_ref())
}

/// Runs `kind` on workload `w` with `threads` workers, catching panics.
pub fn scheme_pairs(kind: SchemeKind, w: &AdversarialWorkload, threads: usize) -> RunResult {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_scheme(kind, w, threads)));
    match outcome {
        Ok(res) => res,
        // `&*payload` derefs the box: `&payload` would unsize the `Box`
        // itself into `dyn Any` and every downcast would miss.
        Err(payload) => Err(format!("panic: {}", payload_message(&*payload))),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(inner) = payload.downcast_ref::<Box<dyn std::any::Any + Send>>() {
        payload_message(&**inner)
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs an exact driver scheme twice — bitmap-filtered verification on
/// (the default) and off — and demands byte-identical pair sets before
/// returning either. The filter is a pure rejection fast path, so any
/// divergence is a soundness bug in the bitmap bound, reported like any
/// other oracle mismatch. Weighted predicates skip the filter inside the
/// driver; the double run is skipped there to avoid paying twice for a
/// comparison of two identical exact paths.
fn driver_pairs<S: SignatureScheme>(
    scheme: &S,
    collection: &SetCollection,
    pred: Predicate,
    weights: Option<&ssj_core::set::WeightMap>,
    opts: JoinOptions,
) -> RunResult {
    let on = self_join(scheme, collection, pred, weights, opts);
    if pred.is_weighted() {
        return Ok(on.pairs);
    }
    let off = self_join(
        scheme,
        collection,
        pred,
        weights,
        opts.with_bitmap_filter(false),
    );
    if on.pairs != off.pairs {
        return Err(format!(
            "bitmap filter changed the output: {} pair(s) with the filter \
             ({} pruned, {} survivors) vs {} without",
            on.pairs.len(),
            on.stats.bitmap_pruned,
            on.stats.bitmap_survivors,
            off.pairs.len()
        ));
    }
    Ok(on.pairs)
}

fn run_scheme(kind: SchemeKind, w: &AdversarialWorkload, threads: usize) -> RunResult {
    let collection = w.collection();
    let pred = predicate_of(kind, w);
    let opts = JoinOptions::parallel(threads);
    let max_len = w.max_set_len();
    let seed = w.seed ^ 0xd1ff;
    match kind {
        SchemeKind::PeHamming => {
            let params = PartEnumParams::candidates(w.hamming_k, 1 << 16)
                .into_iter()
                .next()
                .ok_or_else(|| format!("no valid params for k = {}", w.hamming_k))?;
            let scheme = PartEnumHamming::new(w.hamming_k, params, seed)
                .map_err(|e| format!("construction failed: {e}"))?;
            driver_pairs(&scheme, &collection, pred, None, opts)
        }
        SchemeKind::PeJaccard => {
            let scheme = PartEnumJaccard::new(w.gamma, max_len, seed)
                .map_err(|e| format!("construction failed: {e}"))?;
            driver_pairs(&scheme, &collection, pred, None, opts)
        }
        SchemeKind::GeneralJaccard | SchemeKind::GeneralMaxFraction => {
            let scheme = GeneralPartEnum::new(pred, max_len, seed)
                .map_err(|e| format!("construction failed: {e}"))?;
            driver_pairs(&scheme, &collection, pred, None, opts)
        }
        SchemeKind::WtEnum => {
            let weights = Arc::new(w.weight_map());
            let th = WtEnum::recommended_th(collection.len());
            let scheme = WtEnum::new(w.weighted_t, th, weights.clone());
            Ok(self_join(&scheme, &collection, pred, Some(&weights), opts).pairs)
        }
        SchemeKind::WtEnumJaccard => {
            let weights = Arc::new(w.weight_map());
            let max_weight = (0..collection.len())
                .map(|i| weights.set_weight(collection.set(i as u32)))
                .fold(1.0f64, f64::max);
            let th = WtEnum::recommended_th(collection.len());
            let scheme = WtEnumJaccard::new(w.gamma_w, max_weight, th, weights.clone());
            Ok(self_join(&scheme, &collection, pred, Some(&weights), opts).pairs)
        }
        SchemeKind::Prefix => {
            let scheme =
                PrefixFilter::build(pred, &[&collection], None, PrefixFilterConfig::default())
                    .map_err(|e| format!("construction failed: {e}"))?;
            driver_pairs(&scheme, &collection, pred, None, opts)
        }
        SchemeKind::Identity => driver_pairs(&IdentityScheme, &collection, pred, None, opts),
        SchemeKind::Lsh => Ok(lsh_pairs(w, &collection, pred, seed)),
        SchemeKind::Serve => serve_pairs(w),
        SchemeKind::Extern => extern_pairs(w, &collection, pred, seed),
        SchemeKind::Cluster => cluster_pairs(w, &collection),
        SchemeKind::Binary => binary_pairs(w, pred, opts, seed),
    }
}

/// The binary driver on [`binary_halves`], with the bitmap filter on and
/// off; the two runs must agree byte for byte, as in [`driver_pairs`].
fn binary_pairs(
    w: &AdversarialWorkload,
    pred: Predicate,
    opts: JoinOptions,
    seed: u64,
) -> RunResult {
    let (r, s) = binary_halves(w);
    let scheme = PartEnumJaccard::new(w.gamma, w.max_set_len(), seed)
        .map_err(|e| format!("construction failed: {e}"))?;
    let on = join(&scheme, &r, &s, pred, None, opts);
    let off = join(&scheme, &r, &s, pred, None, opts.with_bitmap_filter(false));
    if on.pairs != off.pairs {
        return Err(format!(
            "bitmap filter changed the R–S output: {} pair(s) with the filter vs {} without",
            on.pairs.len(),
            off.pairs.len()
        ));
    }
    Ok(on.pairs)
}

/// Node counts the cluster run is forced through: the minimal cluster, an
/// odd count, and one that leaves the consistent-hash ring visibly uneven.
const CLUSTER_NODE_SWEEP: [usize; 3] = [2, 3, 5];

/// The multi-node path: inserts and queries every set through the
/// scatter-gather router over a simulated cluster at every node count in
/// [`CLUSTER_NODE_SWEEP`]. Node count is semantically invisible (placement
/// moves sets around, the join result is content-determined), so all runs
/// must return the identical pair set; each run additionally checks that
/// the folded [`ssj_cluster::ClusterSeq`] accounts for every acked write.
fn cluster_pairs(w: &AdversarialWorkload, collection: &SetCollection) -> RunResult {
    let mut agreed: Option<(usize, Vec<(u32, u32)>)> = None;
    for nodes in CLUSTER_NODE_SWEEP {
        let pairs = cluster_pairs_at(w, collection, nodes)
            .map_err(|e| format!("{nodes}-node cluster: {e}"))?;
        match &agreed {
            None => agreed = Some((nodes, pairs)),
            Some((first_nodes, first)) if *first != pairs => {
                return Err(format!(
                    "node counts disagree: {} pair(s) at {first_nodes} node(s) vs {} at {nodes}",
                    first.len(),
                    pairs.len()
                ));
            }
            Some(_) => {}
        }
    }
    agreed
        .map(|(_, pairs)| pairs)
        .ok_or_else(|| "empty node sweep".to_string())
}

fn cluster_pairs_at(
    w: &AdversarialWorkload,
    collection: &SetCollection,
    nodes: usize,
) -> Result<Vec<(u32, u32)>, String> {
    use ssj_cluster::{ClusterSeq, HashRing, Router, RouterScratch, SimCluster};

    let cfg = ServerConfig {
        gamma: w.gamma,
        shards: 2,
        seed: w.seed ^ 0xc105,
        ..ServerConfig::default()
    };
    let sim = SimCluster::start_memory(nodes, &cfg).map_err(|e| format!("start failed: {e}"))?;
    let ring = HashRing::new(nodes as u32, HashRing::DEFAULT_VNODES, cfg.seed);
    let mut router = Router::new(sim, ring, 0);
    let mut scratch = RouterScratch::default();

    let mut id_of = FxHashMap::default();
    for i in 0..collection.len() {
        let ack = router
            .route_insert(collection.set(i as u32), &mut scratch)
            .map_err(|e| format!("insert {i} failed: {e}"))?;
        id_of.insert(ack.id, i as u32);
    }
    let mut pairs = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    let mut seen = ClusterSeq::new(nodes);
    for i in 0..collection.len() {
        router
            .route_query(collection.set(i as u32), &mut scratch, &mut out, &mut seen)
            .map_err(|e| format!("query {i} failed: {e}"))?;
        if seen.total() != collection.len() as u64 {
            return Err(format!(
                "query {i} saw {} write(s) across the cluster, {} were acked \
                 (components {:?})",
                seen.total(),
                collection.len(),
                seen.components()
            ));
        }
        for id in &out {
            let Some(&j) = id_of.get(id) else {
                return Err(format!("query {i} matched unknown cluster id {id}"));
            };
            let i = i as u32;
            if i != j {
                pairs.insert((i.min(j), i.max(j)));
            }
        }
    }
    Ok(pairs.into_iter().collect())
}

/// Partition counts the extern run is forced through: single-partition
/// (degenerates to one streamed load), the minimal split, and a prime
/// count that never divides the workload evenly.
const EXTERN_PARTITION_SWEEP: [usize; 3] = [1, 2, 7];

/// The out-of-core spill executor: writes the workload to a temporary
/// segment, then joins it at every partition count in
/// [`EXTERN_PARTITION_SWEEP`]. Partitioning is semantically invisible, so
/// all runs must return the identical pair set (and the caller compares
/// that set against the oracle like any exact scheme).
fn extern_pairs(
    w: &AdversarialWorkload,
    collection: &SetCollection,
    pred: Predicate,
    seed: u64,
) -> RunResult {
    let max_len = w.max_set_len().max(1);
    let scheme = GeneralPartEnum::new(pred, max_len, seed)
        .map_err(|e| format!("construction failed: {e}"))?;
    let path = std::env::temp_dir().join(format!(
        "ssjoin_difftest_{}_{}.seg",
        std::process::id(),
        w.seed
    ));
    let run = (|| {
        ssj_extern::write_collection_segment(&path, collection, 0)
            .map_err(|e| format!("segment write failed: {e}"))?;
        let mut agreed: Option<(usize, Vec<(u32, u32)>)> = None;
        for min_parts in EXTERN_PARTITION_SWEEP {
            let mut seg = ssj_extern::Segment::open_path(&path)
                .map_err(|e| format!("segment open failed: {e}"))?;
            let cfg = ssj_extern::ExternConfig {
                mem_budget: 1 << 30,
                min_partitions: min_parts,
                spill_dir: None,
                ..Default::default()
            };
            let (pairs, stats) =
                ssj_extern::external_self_join(&mut seg, &scheme, pred, None, &cfg)
                    .map_err(|e| format!("extern join (min_partitions {min_parts}) failed: {e}"))?;
            if stats.partitions < min_parts {
                return Err(format!(
                    "asked for at least {min_parts} partition(s), ran {}",
                    stats.partitions
                ));
            }
            match &agreed {
                None => agreed = Some((min_parts, pairs)),
                Some((first_parts, first)) if *first != pairs => {
                    return Err(format!(
                        "partition counts disagree: {} pair(s) at min_partitions {first_parts} \
                         vs {} at {min_parts}",
                        first.len(),
                        pairs.len()
                    ));
                }
                Some(_) => {}
            }
        }
        agreed
            .map(|(_, pairs)| pairs)
            .ok_or_else(|| "empty partition sweep".to_string())
    })();
    std::fs::remove_file(&path).ok();
    run
}

/// LSH is inexact, so it bypasses the join driver (whose debug-build
/// completeness invariant would — correctly — fire on recall misses) and
/// uses a direct signature-collision candidate pass instead. The difftest
/// only checks soundness: every reported pair must be a true pair.
fn lsh_pairs(
    w: &AdversarialWorkload,
    collection: &SetCollection,
    pred: Predicate,
    seed: u64,
) -> Vec<(u32, u32)> {
    let scheme = LshJaccard::optimized(w.gamma.min(0.99), 0.9, collection, 64, seed);
    let sigs: Vec<Vec<u64>> = (0..collection.len())
        .map(|i| {
            let mut s = scheme.signatures(collection.set(i as u32));
            s.sort_unstable();
            s
        })
        .collect();
    let mut out = Vec::new();
    for a in 0..collection.len() {
        for b in a + 1..collection.len() {
            let collide = sigs[a].iter().any(|s| sigs[b].binary_search(s).is_ok());
            if collide && pred.evaluate(collection.set(a as u32), collection.set(b as u32), None) {
                out.push((a as u32, b as u32));
            }
        }
    }
    out
}

/// Drives the full ssj-serve wire path in process: insert every set over a
/// scripted connection, query every set, and translate the matched global
/// ids back to input indices.
fn serve_pairs(w: &AdversarialWorkload) -> RunResult {
    let collection = w.collection();
    let server = Server::start(ServerConfig {
        gamma: w.gamma,
        shards: 2,
        seed: w.seed ^ 0x5e7e,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start failed: {e}"))?;
    let handle = server.handle();

    let mut script = String::new();
    for i in 0..collection.len() {
        script.push_str(&encode_op("insert", collection.set(i as u32)));
    }
    for i in 0..collection.len() {
        script.push_str(&encode_op("query", collection.set(i as u32)));
    }
    let mut out = Vec::new();
    let io = serve_connection(&handle, script.as_bytes(), &mut out);
    server.shutdown();
    io.map_err(|e| format!("wire session failed: {e}"))?;

    let text = String::from_utf8(out).map_err(|e| format!("non-utf8 response: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != 2 * collection.len() {
        return Err(format!(
            "expected {} response lines, got {}",
            2 * collection.len(),
            lines.len()
        ));
    }
    // Global id → input index (duplicates get distinct ids).
    let mut id_of = FxHashMap::default();
    for (i, line) in lines[..collection.len()].iter().enumerate() {
        let id = extract_u64(line, "\"id\":")
            .ok_or_else(|| format!("insert {i} answered without an id: {line}"))?;
        id_of.insert(id, i as u32);
    }
    let mut pairs = std::collections::BTreeSet::new();
    for (i, line) in lines[collection.len()..].iter().enumerate() {
        let ids = extract_id_list(line)
            .ok_or_else(|| format!("query {i} answered without an id list: {line}"))?;
        for id in ids {
            let Some(&j) = id_of.get(&id) else {
                return Err(format!("query {i} matched unknown id {id}: {line}"));
            };
            let i = i as u32;
            if i != j {
                pairs.insert((i.min(j), i.max(j)));
            }
        }
    }
    Ok(pairs.into_iter().collect())
}

fn encode_op(op: &str, set: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut line = format!("{{\"op\":\"{op}\",\"set\":[");
    for (i, e) in set.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{e}");
    }
    line.push_str("]}\n");
    line
}

/// First integer following `key` in a response line.
fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The `"ids":[...]` list of a query response.
fn extract_id_list(line: &str) -> Option<Vec<u64>> {
    let at = line.find("\"ids\":[")? + "\"ids\":[".len();
    let end = line[at..].find(']')? + at;
    let body = &line[at..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|d| d.trim().parse().ok()).collect()
}

/// Compares a scheme run against the oracle. `None` means agreement;
/// `Some(detail)` is a human-readable divergence description.
pub fn check(kind: SchemeKind, w: &AdversarialWorkload, threads: usize) -> Option<String> {
    let truth = oracle_pairs(kind, w);
    match scheme_pairs(kind, w, threads) {
        Err(msg) => Some(msg),
        Ok(mut got) => {
            got.sort_unstable();
            got.dedup();
            let missing: Vec<_> = truth.iter().filter(|p| !got.contains(p)).collect();
            let extra: Vec<_> = got.iter().filter(|p| !truth.contains(p)).collect();
            if kind == SchemeKind::Lsh {
                // Approximate scheme: only unsound (extra) pairs count.
                if extra.is_empty() {
                    return None;
                }
                return Some(format!("unsound pairs reported: {extra:?}"));
            }
            if missing.is_empty() && extra.is_empty() {
                None
            } else {
                Some(format!(
                    "missing {} pair(s) {missing:?}, extra {} pair(s) {extra:?} \
                     (oracle total {})",
                    missing.len(),
                    extra.len(),
                    truth.len()
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_datagen::generate_adversarial;

    #[test]
    fn oracle_and_exact_scheme_agree_on_an_easy_workload() {
        let w = AdversarialWorkload {
            seed: 0,
            gamma: 0.8,
            gamma_w: 0.8,
            hamming_k: 2,
            weighted_t: 1.0,
            domain: 10,
            sets: vec![vec![1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 6], vec![7, 8]],
            weights: Vec::new(),
        };
        assert_eq!(check(SchemeKind::PeJaccard, &w, 1), None);
        assert_eq!(check(SchemeKind::PeHamming, &w, 2), None);
    }

    #[test]
    fn wire_helpers_parse_server_output() {
        assert_eq!(
            extract_u64("{\"ok\":true,\"id\":17,\"seq\":3}", "\"id\":"),
            Some(17)
        );
        assert_eq!(
            extract_id_list("{\"ok\":true,\"ids\":[1,5,9],\"seen\":2}"),
            Some(vec![1, 5, 9])
        );
        assert_eq!(extract_id_list("{\"ids\":[]}"), Some(Vec::new()));
    }

    #[test]
    fn panics_are_reported_not_propagated() {
        // A workload the harness must survive regardless of scheme bugs.
        let w = generate_adversarial(3);
        for &kind in SchemeKind::ALL {
            let _ = scheme_pairs(kind, &w, 1);
        }
    }
}
