//! Command-line argument parsing (hand-rolled: the workspace carries no
//! argument-parsing dependency).

use std::fmt;

/// Which algorithm drives the join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// PartEnum (exact; the default).
    Pen,
    /// Prefix filter (exact), with an optional gram size for edit joins.
    Pf(Option<usize>),
    /// Minhash LSH at the given recall target (approximate).
    Lsh(f64),
    /// WtEnum (exact; weighted joins only).
    Wen,
}

/// How input lines become sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tokenizer {
    /// Whitespace word tokens.
    Words,
    /// Character n-grams of the given size.
    Qgrams(usize),
}

/// The join mode (subcommand).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Jaccard similarity ≥ threshold.
    Jaccard {
        /// Similarity threshold.
        gamma: f64,
    },
    /// Hamming distance ≤ k.
    Hamming {
        /// Distance threshold.
        k: usize,
    },
    /// Edit distance ≤ k over raw strings.
    Edit {
        /// Edit-distance threshold.
        k: usize,
    },
    /// Weighted (IDF) jaccard ≥ threshold.
    Weighted {
        /// Similarity threshold.
        gamma: f64,
    },
    /// Dice coefficient ≥ threshold.
    Dice {
        /// Similarity threshold.
        gamma: f64,
    },
    /// Cosine similarity ≥ threshold.
    Cosine {
        /// Similarity threshold.
        gamma: f64,
    },
}

/// A fully parsed top-level invocation: a batch join, or one of the
/// serving-layer subcommands.
#[derive(Debug, Clone)]
pub enum Command {
    /// Batch similarity join (the classic modes).
    Join(Cli),
    /// Run the long-lived similarity-search service.
    Serve(ServeOpts),
    /// One-shot client request against a running service.
    Query(QueryOpts),
    /// Run the scatter-gather router over a multi-node cluster.
    Cluster(ClusterOpts),
}

/// Options for `ssjoin serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// TCP listen address (ignored with `--stdio`).
    pub addr: String,
    /// Serve a single session over stdin/stdout instead of TCP.
    pub stdio: bool,
    /// Jaccard threshold the service answers queries for.
    pub gamma: f64,
    /// Number of index shards.
    pub shards: usize,
    /// Bound on requests in flight.
    pub queue_capacity: usize,
    /// Signature/router seed.
    pub seed: u64,
    /// Data directory for durable persistence (`None` = memory-only).
    pub data_dir: Option<String>,
    /// WAL fsync policy (only meaningful with `data_dir`).
    pub sync: ssj_serve::SyncMode,
    /// Snapshot-and-truncate cadence in writes (0 disables automatic
    /// snapshots).
    pub snapshot_every: u64,
}

/// Options for `ssjoin cluster`: a router session over N serve nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOpts {
    /// In-process TCP nodes to spawn (ignored when `addrs` is non-empty).
    pub nodes: usize,
    /// Externally running node addresses, index = node id. Empty means
    /// spawn `nodes` in-process servers on ephemeral ports.
    pub addrs: Vec<String>,
    /// Jaccard threshold every node serves.
    pub gamma: f64,
    /// Index shards per spawned node.
    pub shards: usize,
    /// Bound on requests in flight per spawned node.
    pub queue_capacity: usize,
    /// Signature/placement seed (must match the nodes' seed).
    pub seed: u64,
}

/// Options for `ssjoin query`: a pre-encoded request line plus the address
/// to deliver it to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOpts {
    /// Server address.
    pub addr: String,
    /// The NDJSON request line to send.
    pub line: String,
}

/// Fully parsed invocation.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Join mode.
    pub mode: Mode,
    /// Left input path.
    pub input: String,
    /// Right input path (binary join) — self-join when absent.
    pub input2: Option<String>,
    /// Algorithm.
    pub algo: Algo,
    /// Tokenizer (ignored by `edit`, which works on raw strings).
    pub tokenizer: Tokenizer,
    /// Worker threads.
    pub threads: usize,
    /// Output path (stdout when absent).
    pub output: Option<String>,
    /// Print join statistics to stderr.
    pub stats: bool,
    /// Out-of-core memory budget in bytes — when set, the join spills to
    /// disk partitions instead of building the full index in memory.
    pub mem_budget: Option<u64>,
}

/// A parse failure with a user-facing message.
#[derive(Debug)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
ssjoin — exact set-similarity joins (VLDB 2006 reproduction)

USAGE:
  ssjoin <jaccard|hamming|edit|weighted|dice|cosine> --input FILE [OPTIONS]
  ssjoin serve [SERVE OPTIONS]
  ssjoin query --addr HOST:PORT <QUERY OPTIONS>
  ssjoin cluster [CLUSTER OPTIONS]

MODES:
  jaccard   --threshold G     pairs with jaccard similarity >= G
  hamming   --k K             pairs with hamming distance <= K
  edit      --k K             strings within edit distance K
  weighted  --threshold G     pairs with IDF-weighted jaccard >= G
  dice      --threshold G     pairs with dice coefficient >= G
  cosine    --threshold G     pairs with cosine similarity >= G

OPTIONS:
  --input FILE        one record per line (required)
  --input2 FILE       second input: binary join instead of self-join
  --algo A            pen (default) | pf[:gram] | lsh[:recall] | wen
  --tokenizer T       words (default) | qgrams:N
  --threads N         worker threads (default 1; 0 = auto-detect cores)
  --output FILE       write pairs here instead of stdout
  --stats             print phase timings and counters to stderr
  --mem-budget B      out-of-core join under a hard memory budget of B
                      bytes (suffixes k/m/g = powers of 1024); spills
                      hash-ranged partitions to disk and streams them.
                      Self-join only; jaccard/hamming/dice/cosine with
                      the default pen algorithm. Results are identical
                      to the in-memory join.

SERVE OPTIONS (long-running similarity-search service, NDJSON protocol):
  --addr HOST:PORT    listen address (default 127.0.0.1:7878)
  --stdio             serve one session on stdin/stdout instead of TCP
  --threshold G       jaccard threshold served (default 0.8)
  --shards N          index shards (default 4)
  --queue-cap N       bound on requests in flight (default 128)
  --seed N            signature/router seed (default 42)
  --data-dir DIR      durable WAL+snapshot persistence in DIR (default off);
                      on startup the index is recovered from DIR
  --sync MODE         WAL fsync policy with --data-dir (default every):
                      every | interval[:MS] | never
  --snapshot-every N  snapshot+truncate the WAL every N writes
                      (default 8192; 0 = only on explicit request)

CLUSTER OPTIONS (scatter-gather router session on stdin/stdout):
  --nodes N           spawn N in-process serve nodes on ephemeral ports
                      (default 2; N >= 2)
  --addrs A1,A2,...   route over externally running nodes instead of
                      spawning (overrides --nodes; >= 2 addresses)
  --threshold G       jaccard threshold served (default 0.8)
  --shards N          index shards per spawned node (default 4)
  --queue-cap N       bound on requests in flight per spawned node
                      (default 128)
  --seed N            signature/placement seed (default 42); with --addrs
                      it must equal the nodes' --seed
  Session: one NDJSON request per stdin line (insert | query | remove,
  same shapes as QUERY OPTIONS), one routed response per stdout line;
  ids are cluster ids. EOF or {\"op\":\"shutdown\"} ends the session and
  stops spawned nodes.

QUERY OPTIONS (one-shot client; prints the JSON response line):
  --set E1,E2,...     query for similar sets (with --op to change verb)
  --op OP             query (default) | insert | query_insert
  --remove ID         remove a set by id
  --get-stats         fetch server counters
  --shutdown          drain and stop the server
  --compact           snapshot every shard now (and truncate the WAL)
";

fn parse_algo(s: &str) -> Result<Algo, ParseError> {
    if let Some(rest) = s.strip_prefix("lsh") {
        let recall = match rest.strip_prefix(':') {
            None if rest.is_empty() => 0.95,
            Some(r) => r
                .parse()
                .map_err(|_| ParseError(format!("bad LSH recall {r:?}")))?,
            _ => return Err(ParseError(format!("unknown algorithm {s:?}"))),
        };
        if !(0.0 < recall && recall < 1.0) {
            return Err(ParseError("LSH recall must be in (0, 1)".into()));
        }
        return Ok(Algo::Lsh(recall));
    }
    if let Some(rest) = s.strip_prefix("pf") {
        let gram = match rest.strip_prefix(':') {
            None if rest.is_empty() => None,
            Some(g) => Some(
                g.parse()
                    .map_err(|_| ParseError(format!("bad PF gram size {g:?}")))?,
            ),
            _ => return Err(ParseError(format!("unknown algorithm {s:?}"))),
        };
        return Ok(Algo::Pf(gram));
    }
    match s {
        "pen" => Ok(Algo::Pen),
        "wen" => Ok(Algo::Wen),
        _ => Err(ParseError(format!("unknown algorithm {s:?}"))),
    }
}

fn parse_tokenizer(s: &str) -> Result<Tokenizer, ParseError> {
    if s == "words" {
        return Ok(Tokenizer::Words);
    }
    if let Some(n) = s.strip_prefix("qgrams:") {
        let n: usize = n
            .parse()
            .map_err(|_| ParseError(format!("bad qgram size {n:?}")))?;
        if n == 0 {
            return Err(ParseError("qgram size must be positive".into()));
        }
        return Ok(Tokenizer::Qgrams(n));
    }
    Err(ParseError(format!("unknown tokenizer {s:?}")))
}

/// Parses the top-level argument vector (without the program name),
/// dispatching between batch joins and the serving subcommands.
pub fn parse_command(args: &[String]) -> Result<Command, ParseError> {
    match args.first().map(String::as_str) {
        Some("serve") => parse_serve(&args[1..]).map(Command::Serve),
        Some("query") => parse_query(&args[1..]).map(Command::Query),
        Some("cluster") => parse_cluster(&args[1..]).map(Command::Cluster),
        _ => parse(args).map(Command::Join),
    }
}

fn parse_cluster(args: &[String]) -> Result<ClusterOpts, ParseError> {
    let mut opts = ClusterOpts {
        nodes: 2,
        addrs: Vec::new(),
        gamma: 0.8,
        shards: 4,
        queue_capacity: 128,
        seed: 42,
    };
    let mut i = 0;
    let next = |i: &mut usize| -> Result<&String, ParseError> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| ParseError(format!("{} needs a value", args[*i - 1])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => {
                opts.nodes = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --nodes".into()))?
            }
            "--addrs" => {
                opts.addrs = next(&mut i)?
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(|a| a.trim().to_string())
                    .collect()
            }
            "--threshold" => {
                opts.gamma = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --threshold".into()))?
            }
            "--shards" => {
                opts.shards = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --shards".into()))?
            }
            "--queue-cap" => {
                opts.queue_capacity = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --queue-cap".into()))?
            }
            "--seed" => {
                opts.seed = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --seed".into()))?
            }
            "--help" | "-h" => return Err(ParseError(USAGE.into())),
            other => {
                return Err(ParseError(format!(
                    "unknown cluster option {other:?}\n\n{USAGE}"
                )))
            }
        }
        i += 1;
    }
    if !(0.0 < opts.gamma && opts.gamma <= 1.0) {
        return Err(ParseError("--threshold must be in (0, 1]".into()));
    }
    if opts.shards == 0 {
        return Err(ParseError("--shards must be positive".into()));
    }
    if opts.queue_capacity == 0 {
        return Err(ParseError("--queue-cap must be positive".into()));
    }
    if opts.addrs.is_empty() {
        if opts.nodes < 2 {
            return Err(ParseError(
                "--nodes must be at least 2 (use `serve` for one node)".into(),
            ));
        }
    } else if opts.addrs.len() < 2 {
        return Err(ParseError(
            "--addrs needs at least 2 addresses (use `query` for one node)".into(),
        ));
    }
    Ok(opts)
}

fn parse_serve(args: &[String]) -> Result<ServeOpts, ParseError> {
    let mut opts = ServeOpts {
        addr: "127.0.0.1:7878".to_string(),
        stdio: false,
        gamma: 0.8,
        shards: 4,
        queue_capacity: 128,
        seed: 42,
        data_dir: None,
        sync: ssj_serve::SyncMode::Every,
        snapshot_every: 8192,
    };
    let mut i = 0;
    let next = |i: &mut usize| -> Result<&String, ParseError> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| ParseError(format!("{} needs a value", args[*i - 1])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => opts.addr = next(&mut i)?.clone(),
            "--stdio" => opts.stdio = true,
            "--threshold" => {
                opts.gamma = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --threshold".into()))?
            }
            "--shards" => {
                opts.shards = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --shards".into()))?
            }
            "--queue-cap" => {
                opts.queue_capacity = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --queue-cap".into()))?
            }
            "--seed" => {
                opts.seed = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --seed".into()))?
            }
            "--data-dir" => opts.data_dir = Some(next(&mut i)?.clone()),
            "--sync" => {
                let text = next(&mut i)?;
                opts.sync = ssj_serve::SyncMode::parse(text)
                    .map_err(|e| ParseError(format!("bad --sync: {e}")))?
            }
            "--snapshot-every" => {
                opts.snapshot_every = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --snapshot-every".into()))?
            }
            "--help" | "-h" => return Err(ParseError(USAGE.into())),
            other => {
                return Err(ParseError(format!(
                    "unknown serve option {other:?}\n\n{USAGE}"
                )))
            }
        }
        i += 1;
    }
    if !(0.0 < opts.gamma && opts.gamma <= 1.0) {
        return Err(ParseError("--threshold must be in (0, 1]".into()));
    }
    if opts.shards == 0 {
        return Err(ParseError("--shards must be positive".into()));
    }
    if opts.queue_capacity == 0 {
        return Err(ParseError("--queue-cap must be positive".into()));
    }
    Ok(opts)
}

fn parse_set_list(s: &str) -> Result<Vec<u32>, ParseError> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| ParseError(format!("bad set element {t:?}")))
        })
        .collect()
}

fn parse_query(args: &[String]) -> Result<QueryOpts, ParseError> {
    let mut addr: Option<String> = None;
    let mut set: Option<Vec<u32>> = None;
    let mut op = "query".to_string();
    let mut remove: Option<u64> = None;
    let mut stats = false;
    let mut shutdown = false;
    let mut compact = false;

    let mut i = 0;
    let next = |i: &mut usize| -> Result<&String, ParseError> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| ParseError(format!("{} needs a value", args[*i - 1])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(next(&mut i)?.clone()),
            "--set" => set = Some(parse_set_list(next(&mut i)?)?),
            "--op" => op = next(&mut i)?.clone(),
            "--remove" => {
                remove = Some(
                    next(&mut i)?
                        .parse()
                        .map_err(|_| ParseError("bad --remove id".into()))?,
                )
            }
            "--get-stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--compact" => compact = true,
            "--help" | "-h" => return Err(ParseError(USAGE.into())),
            other => {
                return Err(ParseError(format!(
                    "unknown query option {other:?}\n\n{USAGE}"
                )))
            }
        }
        i += 1;
    }
    let addr = addr.ok_or_else(|| ParseError("query requires --addr HOST:PORT".into()))?;
    if !matches!(op.as_str(), "query" | "insert" | "query_insert") {
        return Err(ParseError(format!(
            "--op must be query, insert, or query_insert (got {op:?})"
        )));
    }
    let chosen = usize::from(set.is_some())
        + usize::from(remove.is_some())
        + usize::from(stats)
        + usize::from(shutdown)
        + usize::from(compact);
    if chosen != 1 {
        return Err(ParseError(
            "query needs exactly one of --set, --remove, --get-stats, \
             --shutdown, --compact"
                .into(),
        ));
    }
    let line = if let Some(elems) = set {
        let joined = elems
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"op\":{op:?},\"set\":[{joined}]}}")
    } else if let Some(id) = remove {
        format!("{{\"op\":\"remove\",\"id\":{id}}}")
    } else if stats {
        "{\"op\":\"stats\"}".to_string()
    } else if compact {
        "{\"op\":\"compact\"}".to_string()
    } else {
        "{\"op\":\"shutdown\"}".to_string()
    };
    Ok(QueryOpts { addr, line })
}

/// Parses the argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, ParseError> {
    let mode_name = args.first().ok_or_else(|| ParseError(USAGE.into()))?;
    let mut threshold: Option<f64> = None;
    let mut k: Option<usize> = None;
    let mut input: Option<String> = None;
    let mut input2: Option<String> = None;
    let mut algo: Option<Algo> = None;
    let mut tokenizer = Tokenizer::Words;
    let mut threads = 1usize;
    let mut output = None;
    let mut stats = false;
    let mut mem_budget: Option<u64> = None;

    let mut i = 1;
    let next = |i: &mut usize| -> Result<&String, ParseError> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| ParseError(format!("{} needs a value", args[*i - 1])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                threshold = Some(
                    next(&mut i)?
                        .parse()
                        .map_err(|_| ParseError("bad --threshold".into()))?,
                )
            }
            "--k" => {
                k = Some(
                    next(&mut i)?
                        .parse()
                        .map_err(|_| ParseError("bad --k".into()))?,
                )
            }
            "--input" => input = Some(next(&mut i)?.clone()),
            "--input2" => input2 = Some(next(&mut i)?.clone()),
            "--algo" => algo = Some(parse_algo(next(&mut i)?)?),
            "--tokenizer" => tokenizer = parse_tokenizer(next(&mut i)?)?,
            "--threads" => {
                threads = next(&mut i)?
                    .parse()
                    .map_err(|_| ParseError("bad --threads".into()))?
            }
            "--output" => output = Some(next(&mut i)?.clone()),
            "--stats" => stats = true,
            "--mem-budget" => {
                mem_budget = Some(
                    ssj_extern::parse_mem_budget(next(&mut i)?)
                        .map_err(|e| ParseError(format!("bad --mem-budget: {e}")))?,
                )
            }
            other => return Err(ParseError(format!("unknown option {other:?}\n\n{USAGE}"))),
        }
        i += 1;
    }

    let need_threshold = || {
        threshold
            .ok_or_else(|| ParseError("this mode requires --threshold".into()))
            .and_then(|g| {
                if 0.0 < g && g <= 1.0 {
                    Ok(g)
                } else {
                    Err(ParseError("--threshold must be in (0, 1]".into()))
                }
            })
    };
    let need_k = || k.ok_or_else(|| ParseError("this mode requires --k".into()));
    let mode = match mode_name.as_str() {
        "jaccard" => Mode::Jaccard {
            gamma: need_threshold()?,
        },
        "hamming" => Mode::Hamming { k: need_k()? },
        "edit" => Mode::Edit { k: need_k()? },
        "weighted" => Mode::Weighted {
            gamma: need_threshold()?,
        },
        "dice" => Mode::Dice {
            gamma: need_threshold()?,
        },
        "cosine" => Mode::Cosine {
            gamma: need_threshold()?,
        },
        "--help" | "-h" | "help" => return Err(ParseError(USAGE.into())),
        other => return Err(ParseError(format!("unknown mode {other:?}\n\n{USAGE}"))),
    };
    let input = input.ok_or_else(|| ParseError("--input is required".into()))?;
    let algo = algo.unwrap_or(match mode {
        Mode::Weighted { .. } => Algo::Wen,
        _ => Algo::Pen,
    });
    // Mode/algo compatibility.
    match (mode, algo) {
        (Mode::Edit { .. }, Algo::Lsh(_)) => {
            return Err(ParseError(
                "LSH does not map naturally to edit distance (paper, Section 8.2)".into(),
            ))
        }
        (Mode::Edit { .. }, Algo::Wen)
        | (Mode::Jaccard { .. }, Algo::Wen)
        | (Mode::Hamming { .. }, Algo::Wen) => {
            return Err(ParseError("wen applies only to weighted joins".into()))
        }
        (Mode::Hamming { .. }, Algo::Lsh(_)) => {
            return Err(ParseError(
                "lsh supports jaccard and weighted modes only".into(),
            ))
        }
        _ => {}
    }
    if input2.is_some() && matches!(mode, Mode::Edit { .. } | Mode::Weighted { .. }) {
        return Err(ParseError(
            "--input2 currently supports jaccard and hamming".into(),
        ));
    }
    if mem_budget.is_some() {
        if input2.is_some() {
            return Err(ParseError(
                "--mem-budget supports self-joins only (drop --input2)".into(),
            ));
        }
        if matches!(mode, Mode::Edit { .. } | Mode::Weighted { .. }) {
            return Err(ParseError(
                "--mem-budget supports jaccard, hamming, dice, and cosine".into(),
            ));
        }
        if algo != Algo::Pen {
            return Err(ParseError(
                "--mem-budget requires the pen algorithm (the default)".into(),
            ));
        }
    }
    Ok(Cli {
        mode,
        input,
        input2,
        algo,
        tokenizer,
        threads: resolve_workers(threads),
        output,
        stats,
        mem_budget,
    })
}

/// Resolves a `--threads` count: `0` means auto-detect via
/// [`std::thread::available_parallelism`] (falling back to 1 if the
/// platform can't say), anything else is taken as-is.
fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_basic_jaccard() {
        let cli = parse(&args("jaccard --input a.txt --threshold 0.8")).unwrap();
        assert_eq!(cli.mode, Mode::Jaccard { gamma: 0.8 });
        assert_eq!(cli.algo, Algo::Pen);
        assert_eq!(cli.tokenizer, Tokenizer::Words);
        assert_eq!(cli.threads, 1);
    }

    #[test]
    fn parses_algo_variants() {
        assert_eq!(parse_algo("pen").unwrap(), Algo::Pen);
        assert_eq!(parse_algo("pf").unwrap(), Algo::Pf(None));
        assert_eq!(parse_algo("pf:5").unwrap(), Algo::Pf(Some(5)));
        assert_eq!(parse_algo("lsh").unwrap(), Algo::Lsh(0.95));
        assert_eq!(parse_algo("lsh:0.99").unwrap(), Algo::Lsh(0.99));
        assert!(parse_algo("bogus").is_err());
        assert!(parse_algo("lsh:2").is_err());
    }

    #[test]
    fn parses_tokenizers() {
        assert_eq!(parse_tokenizer("words").unwrap(), Tokenizer::Words);
        assert_eq!(parse_tokenizer("qgrams:3").unwrap(), Tokenizer::Qgrams(3));
        assert!(parse_tokenizer("qgrams:0").is_err());
        assert!(parse_tokenizer("chars").is_err());
    }

    #[test]
    fn weighted_defaults_to_wen() {
        let cli = parse(&args("weighted --input a.txt --threshold 0.8")).unwrap();
        assert_eq!(cli.algo, Algo::Wen);
    }

    #[test]
    fn rejects_incompatible_combinations() {
        assert!(parse(&args("edit --input a --k 2 --algo lsh")).is_err());
        assert!(parse(&args("jaccard --input a --threshold 0.8 --algo wen")).is_err());
        assert!(parse(&args("hamming --input a --k 2 --algo lsh")).is_err());
    }

    #[test]
    fn threads_zero_auto_detects_cores() {
        let cli = parse(&args("jaccard --input a.txt --threshold 0.8 --threads 0")).unwrap();
        let auto = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        assert_eq!(cli.threads, auto);
        assert!(cli.threads >= 1);
        // An explicit count is passed through untouched.
        let cli = parse(&args("jaccard --input a.txt --threshold 0.8 --threads 3")).unwrap();
        assert_eq!(cli.threads, 3);
    }

    #[test]
    fn parses_serve_subcommand() {
        let cmd = parse_command(&args(
            "serve --addr 0.0.0.0:9000 --threshold 0.6 --shards 2 --queue-cap 16 --seed 9",
        ))
        .unwrap();
        match cmd {
            Command::Serve(o) => {
                assert_eq!(o.addr, "0.0.0.0:9000");
                assert!(!o.stdio);
                assert_eq!(o.gamma, 0.6);
                assert_eq!(o.shards, 2);
                assert_eq!(o.queue_capacity, 16);
                assert_eq!(o.seed, 9);
                assert_eq!(o.data_dir, None);
                assert_eq!(o.sync, ssj_serve::SyncMode::Every);
                assert_eq!(o.snapshot_every, 8192);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&args("serve --stdio")),
            Ok(Command::Serve(ServeOpts { stdio: true, .. }))
        ));
        assert!(parse_command(&args("serve --shards 0")).is_err());
        assert!(parse_command(&args("serve --threshold 1.5")).is_err());
        assert!(parse_command(&args("serve --queue-cap 0")).is_err());
        assert!(parse_command(&args("serve --frobnicate")).is_err());
    }

    #[test]
    fn parses_serve_durability_options() {
        let cmd = parse_command(&args(
            "serve --data-dir /tmp/ssj-data --sync interval:250 --snapshot-every 1000",
        ))
        .unwrap();
        match cmd {
            Command::Serve(o) => {
                assert_eq!(o.data_dir.as_deref(), Some("/tmp/ssj-data"));
                assert_eq!(
                    o.sync,
                    ssj_serve::SyncMode::Interval(std::time::Duration::from_millis(250))
                );
                assert_eq!(o.snapshot_every, 1000);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&args("serve --sync never")),
            Ok(Command::Serve(ServeOpts {
                sync: ssj_serve::SyncMode::Never,
                ..
            }))
        ));
        assert!(parse_command(&args("serve --sync sometimes")).is_err());
        assert!(parse_command(&args("serve --snapshot-every many")).is_err());
        assert!(parse_command(&args("serve --data-dir")).is_err());
    }

    #[test]
    fn parses_cluster_subcommand() {
        let cmd = parse_command(&args(
            "cluster --nodes 3 --threshold 0.6 --shards 2 --seed 9",
        ));
        match cmd {
            Ok(Command::Cluster(o)) => {
                assert_eq!(o.nodes, 3);
                assert!(o.addrs.is_empty());
                assert_eq!(o.gamma, 0.6);
                assert_eq!(o.shards, 2);
                assert_eq!(o.seed, 9);
            }
            other => panic!("expected cluster, got {other:?}"),
        }
        match parse_command(&args("cluster --addrs h:1,h:2,h:3")) {
            Ok(Command::Cluster(o)) => {
                assert_eq!(o.addrs, vec!["h:1", "h:2", "h:3"]);
                assert_eq!(o.nodes, 2); // default, ignored with addrs
            }
            other => panic!("expected cluster, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&args("cluster")),
            Ok(Command::Cluster(ClusterOpts { nodes: 2, .. }))
        ));
        assert!(parse_command(&args("cluster --nodes 1")).is_err());
        assert!(parse_command(&args("cluster --addrs h:1")).is_err());
        assert!(parse_command(&args("cluster --threshold 1.5")).is_err());
        assert!(parse_command(&args("cluster --shards 0")).is_err());
        assert!(parse_command(&args("cluster --frobnicate")).is_err());
    }

    #[test]
    fn parses_query_subcommand_into_wire_lines() {
        let q = |s: &str| match parse_command(&args(s)) {
            Ok(Command::Query(o)) => o,
            other => panic!("expected query, got {other:?}"),
        };
        let o = q("query --addr 127.0.0.1:7878 --set 3,1,2");
        assert_eq!(o.addr, "127.0.0.1:7878");
        assert_eq!(o.line, r#"{"op":"query","set":[3,1,2]}"#);
        assert_eq!(
            q("query --addr h:1 --set 7 --op insert").line,
            r#"{"op":"insert","set":[7]}"#
        );
        assert_eq!(
            q("query --addr h:1 --remove 12").line,
            r#"{"op":"remove","id":12}"#
        );
        assert_eq!(q("query --addr h:1 --get-stats").line, r#"{"op":"stats"}"#);
        assert_eq!(
            q("query --addr h:1 --shutdown").line,
            r#"{"op":"shutdown"}"#
        );

        assert!(parse_command(&args("query --set 1")).is_err()); // no addr
        assert!(parse_command(&args("query --addr h:1")).is_err()); // no op chosen
        assert!(parse_command(&args("query --addr h:1 --set 1 --shutdown")).is_err());
        assert!(parse_command(&args("query --addr h:1 --set 1 --op warp")).is_err());
        assert!(parse_command(&args("query --addr h:1 --set x")).is_err());
    }

    #[test]
    fn parses_mem_budget_with_suffixes_and_guards_compatibility() {
        let cli = parse(&args("jaccard --input a --threshold 0.8 --mem-budget 64m")).unwrap();
        assert_eq!(cli.mem_budget, Some(64 << 20));
        let cli = parse(&args("dice --input a --threshold 0.7 --mem-budget 4096")).unwrap();
        assert_eq!(cli.mem_budget, Some(4096));
        let cli = parse(&args("jaccard --input a --threshold 0.8")).unwrap();
        assert_eq!(cli.mem_budget, None);

        assert!(parse(&args("jaccard --input a --threshold 0.8 --mem-budget 0")).is_err());
        assert!(parse(&args("jaccard --input a --threshold 0.8 --mem-budget lots")).is_err());
        assert!(parse(&args(
            "jaccard --input a --input2 b --threshold 0.8 --mem-budget 64m"
        ))
        .is_err());
        assert!(parse(&args("edit --input a --k 2 --mem-budget 64m")).is_err());
        assert!(parse(&args("weighted --input a --threshold 0.8 --mem-budget 64m")).is_err());
        assert!(parse(&args(
            "jaccard --input a --threshold 0.8 --algo pf --mem-budget 64m"
        ))
        .is_err());
    }

    #[test]
    fn parses_the_compact_op() {
        let q = |s: &str| match parse_command(&args(s)) {
            Ok(Command::Query(o)) => o,
            other => panic!("expected query, got {other:?}"),
        };
        assert_eq!(q("query --addr h:1 --compact").line, r#"{"op":"compact"}"#);
        assert!(parse_command(&args("query --addr h:1 --compact --deadline-ms 9")).is_err());
        assert!(parse_command(&args("query --addr h:1 --compact --get-stats")).is_err());
    }

    #[test]
    fn plain_modes_still_route_through_parse_command() {
        assert!(matches!(
            parse_command(&args("jaccard --input a.txt --threshold 0.8")),
            Ok(Command::Join(_))
        ));
        assert!(parse_command(&[]).is_err());
    }

    #[test]
    fn rejects_missing_or_bad_values() {
        assert!(parse(&args("jaccard --input a.txt")).is_err()); // no threshold
        assert!(parse(&args("jaccard --threshold 0.8")).is_err()); // no input
        assert!(parse(&args("jaccard --input a --threshold 1.5")).is_err());
        assert!(parse(&args("edit --input a")).is_err()); // no k
        assert!(parse(&args("frobnicate --input a")).is_err());
        assert!(parse(&[]).is_err());
    }
}
