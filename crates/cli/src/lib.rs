//! # ssj-cli — `ssjoin`, the command-line front end
//!
//! Line-oriented similarity joins over text files: each input line is one
//! record; the output is one `idx1 <TAB> idx2` pair per line (0-based line
//! numbers; `idx1` from `--input`, `idx2` from `--input2` for binary joins).
//! Run `ssjoin --help` for the full surface.

#![warn(missing_docs)]
#![expect(clippy::disallowed_methods, reason = "the user's input and output")]
// Unlike the library crates, no `deny(clippy::unwrap_used, expect_used,
// panic)`: a top-level expect/panic aborts the process with a message,
// which is the intended CLI failure mode.

pub mod args;

use args::{Algo, Cli, Mode, Tokenizer};
use ssj_baselines::{LshJaccard, LshWeightedJaccard, PrefixFilter, PrefixFilterConfig};
use ssj_core::join::{join, self_join, JoinOptions, JoinResult};
use ssj_core::partenum::GeneralPartEnum;
use ssj_core::predicate::Predicate;
use ssj_core::set::{SetCollection, WeightMap};
use ssj_core::wtenum::{WtEnum, WtEnumJaccard};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything a run produces: the pairs and a stats summary line.
#[derive(Debug)]
pub struct Outcome {
    /// Matched `(left, right)` line-number pairs.
    pub pairs: Vec<(u32, u32)>,
    /// Human-readable stats (phase timings, counters).
    pub stats_line: String,
    /// Whether the answer is guaranteed complete.
    pub exact: bool,
}

/// Reads one record per line.
fn read_lines(path: &str) -> std::io::Result<Vec<String>> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    reader.lines().collect()
}

fn tokenize(lines: &[String], tokenizer: Tokenizer) -> SetCollection {
    match tokenizer {
        Tokenizer::Words => lines
            .iter()
            .map(|l| ssj_text::token_set(l, 0x11e))
            .collect(),
        Tokenizer::Qgrams(n) => lines.iter().map(|l| ssj_text::qgram_set(l, n)).collect(),
    }
}

/// Loads a set input: binary `ssj-io` collections (sniffed by magic) load
/// directly; anything else is read as text lines and tokenized.
fn load_sets(path: &str, tokenizer: Tokenizer) -> Result<SetCollection, String> {
    let head = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if head.starts_with(b"SSJC") {
        return ssj_io::collection_from_bytes(&head).map_err(|e| format!("{path}: {e}"));
    }
    let text = String::from_utf8(head)
        .map_err(|_| format!("{path}: not UTF-8 text (and not an SSJC binary collection)"))?;
    let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
    Ok(tokenize(&lines, tokenizer))
}

fn stats_line(result: &JoinResult) -> String {
    let s = &result.stats;
    format!(
        "signatures={} collisions={} candidates={} output={} false_positives={} \
         siggen={:.3}s candpair={:.3}s postfilter={:.3}s total={:.3}s",
        s.total_signatures(),
        s.signature_collisions,
        s.candidate_pairs,
        s.output_pairs,
        s.false_positives,
        s.sig_gen_secs,
        s.cand_gen_secs,
        s.verify_secs,
        s.total_secs()
    )
}

fn build_and_run(
    cli: &Cli,
    pred: Predicate,
    left: &SetCollection,
    right: Option<&SetCollection>,
    weights: Option<Arc<WeightMap>>,
) -> Result<JoinResult, String> {
    let opts = JoinOptions {
        threads: cli.threads,
        verify: true,
        ..JoinOptions::default()
    };
    let max_len = left
        .max_set_len()
        .max(right.map_or(0, |r| r.max_set_len()))
        .max(1);
    let collections: Vec<&SetCollection> = match right {
        Some(r) => vec![left, r],
        None => vec![left],
    };
    let seed = 0xc11;
    let run = |scheme: &(dyn ssj_core::signature::SignatureScheme + Sync)| match right {
        Some(r) => join(&scheme, left, r, pred, weights.as_deref(), opts),
        None => self_join(&scheme, left, pred, weights.as_deref(), opts),
    };
    match cli.algo {
        Algo::Pen => {
            let scheme = GeneralPartEnum::new(pred, max_len, seed)
                .map_err(|e| format!("PartEnum does not support this predicate: {e}"))?;
            Ok(run(&scheme))
        }
        Algo::Pf(_) => {
            let scheme = PrefixFilter::build(
                pred,
                &collections,
                weights.clone(),
                PrefixFilterConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            Ok(run(&scheme))
        }
        Algo::Lsh(recall) => match pred {
            Predicate::Jaccard { gamma } => {
                let scheme = LshJaccard::optimized(gamma, recall, left, 1_000, seed);
                Ok(run(&scheme))
            }
            Predicate::WeightedJaccard { gamma } => {
                let w = weights.clone().expect("weighted mode builds weights");
                let scheme =
                    LshWeightedJaccard::optimized(gamma, recall, left, w, 0.5, 1_000, seed);
                Ok(run(&scheme))
            }
            _ => Err("lsh supports jaccard and weighted modes only".into()),
        },
        Algo::Wen => match pred {
            Predicate::WeightedJaccard { gamma } => {
                let w = weights.clone().expect("weighted mode builds weights");
                let max_w = left
                    .iter()
                    .map(|(_, s)| w.set_weight(s))
                    .fold(0.0f64, f64::max)
                    .max(1.0);
                let th = WtEnum::recommended_th(left.len());
                let scheme = WtEnumJaccard::new(gamma, max_w, th, w);
                Ok(run(&scheme))
            }
            _ => Err("wen applies only to weighted joins".into()),
        },
    }
}

/// Distinguishes temp segments written by concurrent joins in one process.
static EXTERN_SEG_SALT: AtomicU64 = AtomicU64::new(0);

/// Runs a self-join out-of-core under `budget` bytes: encodes the
/// collection as a temporary segment, then drives the partitioned
/// spill-and-stream executor. Results are identical to the in-memory
/// path (DESIGN.md §5h); the parser restricts this to self-joins with
/// the PartEnum scheme.
fn run_external(pred: Predicate, left: &SetCollection, budget: u64) -> Result<Outcome, String> {
    let max_len = left.max_set_len().max(1);
    let scheme = GeneralPartEnum::new(pred, max_len, 0xc11)
        .map_err(|e| format!("PartEnum does not support this predicate: {e}"))?;
    let seg_path = std::env::temp_dir().join(format!(
        "ssjoin_extern_{}_{}.seg",
        std::process::id(),
        EXTERN_SEG_SALT.fetch_add(1, Ordering::Relaxed)
    ));
    let run = (|| {
        ssj_extern::write_collection_segment(&seg_path, left, 0)?;
        let mut seg = ssj_extern::Segment::open_path(&seg_path)?;
        let cfg = ssj_extern::ExternConfig {
            mem_budget: budget,
            min_partitions: 1,
            spill_dir: None,
            ..Default::default()
        };
        ssj_extern::external_self_join(&mut seg, &scheme, pred, None, &cfg)
    })();
    std::fs::remove_file(&seg_path).ok();
    let (pairs, s) = run.map_err(|e| format!("out-of-core join failed: {e}"))?;
    Ok(Outcome {
        stats_line: format!(
            "signatures={} collisions={} candidates={} output={} partitions={} \
             mem_budget={} peak_bytes={} spilled_records={} spill_bytes={} \
             bitmap_degraded={} siggen={:.3}s spill={:.3}s probe={:.3}s postfilter={:.3}s",
            s.signatures,
            s.collisions,
            s.candidates,
            s.output_pairs,
            s.partitions,
            s.mem_budget,
            s.peak_bytes,
            s.spilled_records,
            s.spill_bytes,
            s.bitmap_degraded,
            s.sig_secs,
            s.spill_secs,
            s.probe_secs,
            s.verify_secs
        ),
        exact: true,
        pairs,
    })
}

/// Executes a parsed invocation against the filesystem.
pub fn execute(cli: &Cli) -> Result<Outcome, String> {
    let left_lines = read_lines(&cli.input).map_err(|e| format!("{}: {e}", cli.input))?;

    // Edit mode bypasses tokenization: it works on the raw strings.
    if let Mode::Edit { k } = cli.mode {
        let mut cfg = match cli.algo {
            Algo::Pen => ssj_text::EditJoinConfig::partenum(k),
            Algo::Pf(gram) => ssj_text::EditJoinConfig::prefix_filter(k, gram.unwrap_or(4)),
            _ => unreachable!("parser rejects other algos for edit mode"),
        };
        cfg.threads = cli.threads;
        let result = ssj_text::edit_distance_self_join(&left_lines, cfg)
            .map_err(|e| format!("edit join failed: {e}"))?;
        let s = &result.stats;
        return Ok(Outcome {
            pairs: result.pairs,
            stats_line: format!(
                "candidates={} output={} siggen={:.3}s candpair={:.3}s editverify={:.3}s",
                s.candidate_pairs, s.output_pairs, s.sig_gen_secs, s.cand_gen_secs, s.verify_secs
            ),
            exact: true,
        });
    }

    let left = load_sets(&cli.input, cli.tokenizer)?;
    let right = match &cli.input2 {
        Some(p) => Some(load_sets(p, cli.tokenizer)?),
        None => None,
    };

    let (pred, weights) = match cli.mode {
        Mode::Jaccard { gamma } => (Predicate::Jaccard { gamma }, None),
        Mode::Hamming { k } => (Predicate::Hamming { k }, None),
        Mode::Dice { gamma } => (Predicate::Dice { gamma }, None),
        Mode::Cosine { gamma } => (Predicate::Cosine { gamma }, None),
        Mode::Weighted { gamma } => {
            let w = Arc::new(WeightMap::idf(&left));
            (Predicate::WeightedJaccard { gamma }, Some(w))
        }
        Mode::Edit { .. } => unreachable!("handled above"),
    };

    if let Some(budget) = cli.mem_budget {
        // The parser guarantees a self-join with a PartEnum-compatible
        // predicate and no weights.
        return run_external(pred, &left, budget);
    }

    let result = build_and_run(cli, pred, &left, right.as_ref(), weights)?;
    Ok(Outcome {
        stats_line: stats_line(&result),
        exact: !result.approximate,
        pairs: result.pairs,
    })
}

/// Runs `ssjoin serve`: starts the service and blocks until a client sends
/// `{"op":"shutdown"}` (or, with `--stdio`, until stdin closes).
pub fn run_serve(opts: &args::ServeOpts) -> Result<(), String> {
    let cfg = ssj_serve::ServerConfig {
        gamma: opts.gamma,
        shards: opts.shards,
        queue_capacity: opts.queue_capacity,
        seed: opts.seed,
        data_dir: opts.data_dir.as_ref().map(std::path::PathBuf::from),
        sync: opts.sync,
        snapshot_every: opts.snapshot_every,
        ..ssj_serve::ServerConfig::default()
    };
    let durable = cfg.data_dir.clone();
    let server = ssj_serve::Server::start(cfg).map_err(|e| e.to_string())?;
    if let Some(dir) = &durable {
        eprintln!("ssjoin serve: durable data dir {}", dir.display());
    }
    if opts.stdio {
        ssj_serve::net::serve_stdio(server).map_err(|e| e.to_string())?;
        return Ok(());
    }
    let listener = std::net::TcpListener::bind(&opts.addr)
        .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("ssjoin serve: listening on {local}");
    ssj_serve::net::serve_tcp(server, listener).map_err(|e| e.to_string())
}

/// Runs `ssjoin cluster`: a scatter-gather router session on
/// stdin/stdout over N serve nodes (spawned in-process on ephemeral
/// ports, or externally running via `--addrs`).
pub fn run_cluster(opts: &args::ClusterOpts) -> Result<(), String> {
    let mut spawned: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let addrs = if opts.addrs.is_empty() {
        let cfg = ssj_serve::ServerConfig {
            gamma: opts.gamma,
            shards: opts.shards,
            queue_capacity: opts.queue_capacity,
            seed: opts.seed,
            ..ssj_serve::ServerConfig::default()
        };
        let mut addrs = Vec::with_capacity(opts.nodes);
        for node in 0..opts.nodes {
            let server = ssj_serve::Server::start(cfg.clone()).map_err(|e| e.to_string())?;
            let listener = std::net::TcpListener::bind("127.0.0.1:0")
                .map_err(|e| format!("cannot bind node {node}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            addrs.push(local.to_string());
            spawned.push(std::thread::spawn(move || {
                let _ = ssj_serve::net::serve_tcp(server, listener);
            }));
        }
        eprintln!(
            "ssjoin cluster: {} in-process nodes at {}",
            opts.nodes,
            addrs.join(", ")
        );
        addrs
    } else {
        opts.addrs.clone()
    };
    // The session owns the router, so its persistent node connections are
    // closed before the nodes are told to shut down — and the nodes are
    // shut down and joined whether or not the session ended in an error.
    let outcome = cluster_session(addrs.clone(), opts.seed);
    if !spawned.is_empty() {
        for addr in &addrs {
            let _ = ssj_serve::net::client_call(addr, "{\"op\":\"shutdown\"}");
        }
        for handle in spawned {
            let _ = handle.join();
        }
    }
    outcome
}

/// One router session on stdin/stdout over the nodes at `addrs`; returns
/// at end of input or on a `shutdown` line, with every node connection
/// closed.
fn cluster_session(addrs: Vec<String>, seed: u64) -> Result<(), String> {
    let nodes = addrs.len();
    let ring = ssj_cluster::HashRing::new(
        u32::try_from(nodes).map_err(|_| "too many nodes".to_string())?,
        ssj_cluster::HashRing::DEFAULT_VNODES,
        seed,
    );
    let transport = ssj_cluster::TcpTransport::new(addrs);
    let mut router = ssj_cluster::Router::new(transport, ring, 1);
    let mut scratch = ssj_cluster::RouterScratch::default();

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out_handle = stdout.lock();
    let mut ids: Vec<u64> = Vec::new();
    let mut seen = ssj_cluster::ClusterSeq::new(nodes);
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = cluster_reply(&mut router, &mut scratch, &mut ids, &mut seen, &line);
        let Some(reply) = reply else {
            break; // shutdown requested
        };
        writeln!(out_handle, "{reply}").map_err(|e| e.to_string())?;
        out_handle.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Routes one session line and renders the response; `None` means the
/// client asked the session to shut down.
fn cluster_reply<T: ssj_cluster::Transport>(
    router: &mut ssj_cluster::Router<T>,
    scratch: &mut ssj_cluster::RouterScratch,
    ids: &mut Vec<u64>,
    seen: &mut ssj_cluster::ClusterSeq,
    line: &str,
) -> Option<String> {
    use ssj_serve::service::Request;
    let bad = |msg: &str| {
        let mut out = String::from("{\"ok\":false,\"error\":\"bad_request\",\"message\":");
        ssj_io::json::write_escaped(&mut out, msg);
        out.push('}');
        out
    };
    let req = match ssj_serve::wire::parse_request(line) {
        Ok(ssj_serve::wire::WireRequest::Call { req }) => req,
        Ok(ssj_serve::wire::WireRequest::Shutdown) => return None,
        Err(msg) => return Some(bad(&msg)),
    };
    let rendered = match req {
        Request::Insert { elems } => router.route_insert(&elems, scratch).map(|ack| {
            let durable = ack
                .durable_seq
                .map(|d| format!(",\"durable_seq\":{d}"))
                .unwrap_or_default();
            format!(
                "{{\"ok\":true,\"op\":\"insert\",\"id\":{},\"node\":{},\"seq\":{}{durable}}}",
                ack.id, ack.node, ack.node_seq
            )
        }),
        Request::Query { elems } => router.route_query(&elems, scratch, ids, seen).map(|ack| {
            let join_u64 = |xs: &[u64]| {
                xs.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!(
                "{{\"ok\":true,\"op\":\"query\",\"ids\":[{}],\"seen\":[{}],\
                         \"probed\":{},\"replica_answers\":{}}}",
                join_u64(ids),
                join_u64(seen.components()),
                ack.probed,
                ack.replica_answers
            )
        }),
        Request::Remove { id } => router.route_remove(id, scratch).map(|ack| {
            let durable = ack
                .durable_seq
                .map(|d| format!(",\"durable_seq\":{d}"))
                .unwrap_or_default();
            format!(
                "{{\"ok\":true,\"op\":\"remove\",\"found\":{},\"node\":{},\"seq\":{}{durable}}}",
                ack.found, ack.node, ack.node_seq
            )
        }),
        _ => {
            return Some(bad(
                "only insert, query, and remove route at the cluster level",
            ))
        }
    };
    Some(rendered.unwrap_or_else(|e| {
        let mut out = String::from("{\"ok\":false,\"error\":");
        ssj_io::json::write_escaped(&mut out, &e.to_string());
        out.push('}');
        out
    }))
}

/// Runs `ssjoin query`: delivers one request line and returns the server's
/// response line, plus whether the server reported success.
pub fn run_query(opts: &args::QueryOpts) -> Result<(String, bool), String> {
    let reply = ssj_serve::net::client_call(&opts.addr, &opts.line)
        .map_err(|e| format!("{}: {e}", opts.addr))?;
    let ok = ssj_io::json::parse(&reply)
        .and_then(|v| {
            Ok(matches!(
                v.as_object()?.get("ok"),
                Some(ssj_io::json::Value::Bool(true))
            ))
        })
        .unwrap_or(false);
    Ok((reply, ok))
}

/// Writes pairs to the configured destination.
pub fn write_output(cli: &Cli, outcome: &Outcome) -> std::io::Result<()> {
    let mut sink: Box<dyn Write> = match &cli.output {
        Some(path) => Box::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => Box::new(std::io::BufWriter::new(std::io::stdout().lock())),
    };
    for &(a, b) in &outcome.pairs {
        writeln!(sink, "{a}\t{b}")?;
    }
    sink.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::parse;
    use std::path::PathBuf;

    fn temp_file(name: &str, lines: &[&str]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("ssj_cli_{}_{name}", std::process::id()));
        std::fs::write(&path, lines.join("\n")).expect("temp write");
        path
    }

    fn argvec(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn jaccard_end_to_end() {
        let input = temp_file(
            "jac.txt",
            &[
                "alpha beta gamma delta",
                "alpha beta gamma delta epsilon",
                "unrelated words here",
            ],
        );
        let cli = parse(&argvec(&format!(
            "jaccard --input {} --threshold 0.8",
            input.display()
        )))
        .unwrap();
        let out = execute(&cli).unwrap();
        assert_eq!(out.pairs, vec![(0, 1)]);
        assert!(out.exact);
        assert!(out.stats_line.contains("output=1"));
    }

    #[test]
    fn edit_end_to_end() {
        let input = temp_file("edit.txt", &["148th ave ne", "147th ave ne", "main street"]);
        let cli = parse(&argvec(&format!("edit --input {} --k 1", input.display()))).unwrap();
        let out = execute(&cli).unwrap();
        assert_eq!(out.pairs, vec![(0, 1)]);
    }

    #[test]
    fn weighted_end_to_end_all_algos() {
        let input = temp_file(
            "w.txt",
            &[
                "acme robotics seattle wa",
                "acme robotics llc seattle wa",
                "zenith optics seattle wa",
                "other thing entirely different",
            ],
        );
        for algo in ["wen", "pf", "lsh:0.99"] {
            let cli = parse(&argvec(&format!(
                "weighted --input {} --threshold 0.55 --algo {algo}",
                input.display()
            )))
            .unwrap();
            let out = execute(&cli).unwrap();
            assert!(out.pairs.contains(&(0, 1)), "algo={algo}: {:?}", out.pairs);
        }
    }

    #[test]
    fn binary_join_and_output_file() {
        let left = temp_file("l.txt", &["a b c d", "x y z"]);
        let right = temp_file("r.txt", &["a b c d e", "q r s"]);
        let out_path = std::env::temp_dir().join(format!("ssj_cli_out_{}", std::process::id()));
        let cli = parse(&argvec(&format!(
            "jaccard --input {} --input2 {} --threshold 0.8 --output {}",
            left.display(),
            right.display(),
            out_path.display()
        )))
        .unwrap();
        let out = execute(&cli).unwrap();
        assert_eq!(out.pairs, vec![(0, 0)]);
        write_output(&cli, &out).unwrap();
        let written = std::fs::read_to_string(&out_path).unwrap();
        assert_eq!(written.trim(), "0\t0");
    }

    #[test]
    fn qgram_tokenizer_mode() {
        let input = temp_file("q.txt", &["washington", "woshington", "qqqqqqq"]);
        // 3-gram sets at hamming distance 4 (Example 1).
        let cli = parse(&argvec(&format!(
            "hamming --input {} --k 4 --tokenizer qgrams:3",
            input.display()
        )))
        .unwrap();
        let out = execute(&cli).unwrap();
        assert_eq!(out.pairs, vec![(0, 1)]);
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let cli = parse(&argvec("jaccard --input /nonexistent/x --threshold 0.8")).unwrap();
        let err = execute(&cli).unwrap_err();
        assert!(err.contains("/nonexistent/x"));
    }

    #[test]
    fn dice_and_cosine_modes() {
        let input = temp_file("dc.txt", &["a b c d e", "a b c d e f", "x y z", "p q r s"]);
        for mode in ["dice", "cosine"] {
            for algo in ["pen", "pf"] {
                let cli = parse(&argvec(&format!(
                    "{mode} --input {} --threshold 0.85 --algo {algo}",
                    input.display()
                )))
                .unwrap();
                let out = execute(&cli).unwrap();
                assert_eq!(out.pairs, vec![(0, 1)], "mode={mode} algo={algo}");
            }
        }
    }

    #[test]
    fn binary_collection_input() {
        // Write a binary collection and join it directly (no tokenizer).
        let collection: ssj_core::set::SetCollection =
            vec![vec![1u32, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 6], vec![9, 10]]
                .into_iter()
                .collect();
        let path = std::env::temp_dir().join(format!("ssj_cli_bin_{}.ssjc", std::process::id()));
        ssj_io::save_collection(&path, &collection).unwrap();
        let cli = parse(&argvec(&format!(
            "jaccard --input {} --threshold 0.8",
            path.display()
        )))
        .unwrap();
        let out = execute(&cli).unwrap();
        assert_eq!(out.pairs, vec![(0, 1)]);
    }

    #[test]
    fn mem_budget_join_matches_in_memory_join() {
        // A workload big enough that a small budget actually partitions.
        let lines: Vec<String> = (0..120)
            .map(|i: u32| {
                let base = i / 3; // triples of near-duplicate records
                format!(
                    "w{} w{} w{} w{} w{} extra{}",
                    base,
                    base + 1,
                    base + 2,
                    base + 3,
                    base + 4,
                    i % 3
                )
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let input = temp_file("spill.txt", &refs);

        let in_memory = execute(
            &parse(&argvec(&format!(
                "jaccard --input {} --threshold 0.6",
                input.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(!in_memory.pairs.is_empty(), "workload must produce matches");

        for budget in ["64k", "1g"] {
            let spilled = execute(
                &parse(&argvec(&format!(
                    "jaccard --input {} --threshold 0.6 --mem-budget {budget}",
                    input.display()
                )))
                .unwrap(),
            )
            .unwrap();
            assert_eq!(
                spilled.pairs, in_memory.pairs,
                "--mem-budget {budget} diverged from the in-memory join"
            );
            assert!(spilled.exact);
            assert!(spilled.stats_line.contains("partitions="));
            assert!(spilled.stats_line.contains("bitmap_degraded=false"));
        }
    }

    #[test]
    fn mem_budget_works_for_every_supported_mode() {
        let input = temp_file("spillmode.txt", &["a b c d e", "a b c d e f", "x y z"]);
        for mode in [
            "jaccard --threshold 0.8",
            "dice --threshold 0.85",
            "cosine --threshold 0.85",
            "hamming --k 2",
        ] {
            let plain =
                execute(&parse(&argvec(&format!("{mode} --input {}", input.display()))).unwrap())
                    .unwrap();
            let spilled = execute(
                &parse(&argvec(&format!(
                    "{mode} --input {} --mem-budget 32m",
                    input.display()
                )))
                .unwrap(),
            )
            .unwrap();
            assert_eq!(spilled.pairs, plain.pairs, "mode={mode}");
            assert_eq!(spilled.pairs, vec![(0, 1)], "mode={mode}");
        }
    }

    #[test]
    fn pf_and_pen_agree_via_cli() {
        let input = temp_file(
            "agree.txt",
            &[
                "one two three four",
                "one two three four five",
                "one two six seven",
                "eight nine ten",
            ],
        );
        let mut results = Vec::new();
        for algo in ["pen", "pf"] {
            let cli = parse(&argvec(&format!(
                "jaccard --input {} --threshold 0.6 --algo {algo}",
                input.display()
            )))
            .unwrap();
            results.push(execute(&cli).unwrap().pairs);
        }
        assert_eq!(results[0], results[1]);
    }
}
