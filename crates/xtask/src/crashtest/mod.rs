//! `cargo xtask crashtest` — crash-fault injection against the durable
//! store, with differential recovery checking.
//!
//! Each seed deterministically drives a store-backed [`ShardedIndex`]
//! through a mixed insert/remove workload (optionally snapshotting midway,
//! optionally stopping inside the snapshot-rename/WAL-truncate crash
//! window), then simulates crashes by mutating the on-disk files at
//! adversarial byte offsets:
//!
//! * **truncate** — cut the WAL anywhere in `[durable_bytes, len]`
//!   (including mid-record), the footprint of a torn final append;
//! * **flip-wal** — flip one bit anywhere in the WAL, the footprint of
//!   silent media corruption;
//! * **flip-snap** — flip one bit in a snapshot segment (taking one first
//!   if the seed never snapshotted), in a region drawn uniformly from the
//!   format's four — magic, block frames, footer, trailer — so every
//!   region is flipped across seeds; recovery must fail loudly;
//! * **stray-tmp** — leave a garbage `.snap.tmp` from a crashed snapshot;
//! * **mid-spill** — leave the debris of a crash mid-spill and mid-seal: a
//!   partial `part-N.spill.tmp` partition file and the first half of a
//!   real snapshot segment as its `.snap.tmp` stage (recovery must sweep
//!   both and recover the full history);
//! * **clean** — no mutation at all (control).
//!
//! Recovery then reopens the directory and the recovered state is compared
//! — exactly, shard by shard, id by id — against an in-memory oracle
//! replaying the same logical operations up to the recovered sequence
//! number. The invariants checked:
//!
//! 1. recovery never panics, and fails only for snapshot corruption
//!    (which is detected by checksum or magic, never silently decoded);
//! 2. the recovered state is always a *prefix* of the acked history, and
//!    equals the oracle replayed to exactly that prefix;
//! 3. a crash (truncation) never loses a durably-acked write: the
//!    recovered sequence number covers the durable watermark observed at
//!    crash time.
//!
//! Divergences print a `--replay <seed>` command, difftest-style.
//!
//! The [`cluster`] module runs the multi-node counterpart per seed:
//! node-kill, restart-all, replica-promotion, and snapshot-ship-litter
//! scenarios against a 2-node durable simulated cluster, compared against
//! an oracle at the acked [`ssj_cluster::ClusterSeq`].

pub mod cluster;

use ssj_serve::{ServerConfig, ShardedIndex, SyncMode, WriteResult};
use std::fs;
use std::path::{Path, PathBuf};

/// What `cargo xtask crashtest` was asked to do.
#[derive(Debug, Clone)]
pub struct CrashtestConfig {
    /// Number of consecutive seeds to run, starting at 0.
    pub seeds: u64,
    /// Replay exactly this seed, verbosely, instead of sweeping.
    pub replay: Option<u64>,
}

impl Default for CrashtestConfig {
    fn default() -> Self {
        Self {
            seeds: 100,
            replay: None,
        }
    }
}

/// One recovery that disagreed with the oracle (or failed when it must
/// not, or succeeded when it must not).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Workload seed.
    pub seed: u64,
    /// Mutation scenario that exposed it.
    pub scenario: &'static str,
    /// Human-readable description.
    pub detail: String,
}

/// SplitMix64 — tiny, seedable, dependency-free; every choice the harness
/// makes flows from this so `--replay <seed>` reproduces a run exactly.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678))
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; 0 when `n == 0`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// One logical operation of the acked history, replayable on any index
/// built from the same config.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    Remove(u64),
}

/// Everything the driver learned before the simulated crash.
struct CrashPoint {
    /// The data directory as the crashed process left it.
    dir: PathBuf,
    /// Acked operations in sequence order (op `i` is write number `i`).
    ops: Vec<Op>,
    /// Durable watermark at crash time: writes below it must survive any
    /// *truncation* (a truncated suffix is exactly what a torn final
    /// append looks like).
    durable_seq: u64,
    /// WAL bytes known durable; truncation cuts at or beyond this.
    durable_bytes: u64,
    /// The server config the directory is bound to.
    cfg: ServerConfig,
}

fn base_cfg(seed: u64, shards: usize, sync: SyncMode, dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        gamma: 0.8,
        shards,
        initial_max_size: 16,
        seed,
        data_dir: dir,
        sync,
        snapshot_every: 0, // the driver snapshots explicitly
        ..ServerConfig::default()
    }
}

/// Drives the seeded workload against a durable index and stops without
/// any graceful shutdown, returning the crash-time facts.
fn drive(seed: u64, scratch: &Path) -> Result<CrashPoint, String> {
    let mut rng = Rng::new(seed);
    let shards = 1 + rng.below(4) as usize;
    // Every: each ack is durable (tight recovery bound, no torn window).
    // Never: nothing is durable until a snapshot (maximal torn window).
    let sync = if seed.is_multiple_of(2) {
        SyncMode::Every
    } else {
        SyncMode::Never
    };
    let dir = scratch.join("base");
    let cfg = base_cfg(seed, shards, sync, Some(dir.clone()));
    let idx = ShardedIndex::open(&cfg).map_err(|e| format!("initial open failed: {e}"))?;

    let n_ops = 20 + rng.below(60);
    // Optional mid-workload compaction; optionally "crash" inside the
    // snapshot-written/WAL-not-yet-truncated window instead.
    let snap_at = if rng.below(2) == 0 {
        Some(1 + rng.below(n_ops - 1))
    } else {
        None
    };
    let snap_gap = rng.below(4) == 0;

    let mut ops = Vec::new();
    let mut issued: Vec<u64> = Vec::new();
    for i in 0..n_ops {
        if Some(i) == snap_at {
            if snap_gap {
                // The crash window between the two halves of a snapshot:
                // images renamed into place, WAL left untruncated.
                let (states, seq) = idx.dump();
                let store = idx.store().ok_or("durable index lost its store")?;
                store
                    .snapshot_without_truncate(seq, &states)
                    .map_err(|e| format!("snapshot_without_truncate failed: {e}"))?;
            } else {
                idx.snapshot_now()
                    .map_err(|e| format!("snapshot failed: {e}"))?;
            }
        }
        let remove = !issued.is_empty() && rng.below(10) < 3;
        if remove {
            let id = issued[rng.below(issued.len() as u64) as usize];
            match idx.remove_d(id) {
                WriteResult::Done(_, _) => ops.push(Op::Remove(id)),
                WriteResult::StoreFailed(e) => return Err(format!("remove failed: {e}")),
            }
        } else {
            let len = 1 + rng.below(8) as usize;
            let mut set: Vec<u32> = (0..len).map(|_| rng.below(50) as u32).collect();
            set.sort_unstable();
            set.dedup();
            match idx.insert_d(set.clone()) {
                WriteResult::Done((id, _), _) => {
                    issued.push(id);
                    ops.push(Op::Insert(set));
                }
                WriteResult::StoreFailed(e) => return Err(format!("insert failed: {e}")),
            }
        }
    }

    let store = idx.store().ok_or("durable index lost its store")?;
    let durable_seq = store.durable_seq();
    let durable_bytes = store.durable_wal_bytes();
    // Crash: drop without flush, drain, or truncation. Appended bytes are
    // in the file (same-process visibility); durability bookkeeping above
    // tells us which prefix a real power cut would have guaranteed.
    drop(idx);
    Ok(CrashPoint {
        dir,
        ops,
        durable_seq,
        durable_bytes,
        cfg,
    })
}

/// Replays `ops[..seq]` on a fresh in-memory index and returns its state.
fn oracle_state(cp: &CrashPoint, seq: u64) -> Result<(Vec<ssj_store::ShardState>, u64), String> {
    if seq > cp.ops.len() as u64 {
        return Err(format!(
            "recovered seq {seq} exceeds the {} acked writes",
            cp.ops.len()
        ));
    }
    let mem_cfg = ServerConfig {
        data_dir: None,
        ..cp.cfg.clone()
    };
    let oracle = ShardedIndex::new(&mem_cfg).map_err(|e| format!("oracle build failed: {e}"))?;
    for op in &cp.ops[..seq as usize] {
        match op {
            Op::Insert(set) => {
                let _ = oracle.insert(set.clone());
            }
            Op::Remove(id) => {
                let _ = oracle.remove(*id);
            }
        }
    }
    Ok(oracle.dump())
}

/// Recovers `dir` and demands exact agreement with the oracle prefix at
/// the recovered sequence number. `min_seq` is the durable watermark the
/// recovery must reach (0 when the mutation may destroy durable data).
fn check_recovery(cp: &CrashPoint, dir: &Path, min_seq: u64) -> Result<(), String> {
    let cfg = ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        ..cp.cfg.clone()
    };
    let recovered = ShardedIndex::open(&cfg).map_err(|e| format!("recovery failed: {e}"))?;
    let (got_states, got_seq) = recovered.dump();
    if got_seq < min_seq {
        return Err(format!(
            "recovered only to seq {got_seq}, but writes below {min_seq} were durably acked"
        ));
    }
    let (want_states, want_seq) = oracle_state(cp, got_seq)?;
    if got_seq != want_seq {
        return Err(format!("oracle seq {want_seq} != recovered seq {got_seq}"));
    }
    if got_states != want_states {
        return Err(format!(
            "state diverged from oracle at seq {got_seq}:\n  recovered: {got_states:?}\n  oracle:    {want_states:?}"
        ));
    }
    // The recovered index must stay serviceable: a post-recovery write
    // must ack and be queryable.
    match recovered.insert_d(vec![1, 2, 3]) {
        WriteResult::Done((id, _), _) => {
            let (ids, _, _) = recovered.query(vec![1, 2, 3]);
            if !ids.contains(&id) {
                return Err("post-recovery insert not visible to query".into());
            }
        }
        WriteResult::StoreFailed(e) => {
            return Err(format!("post-recovery insert failed: {e}"));
        }
    }
    Ok(())
}

/// Copies the flat data directory (WAL, snapshots, meta) for one scenario.
fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    fs::create_dir_all(dst).map_err(|e| format!("mkdir {}: {e}", dst.display()))?;
    let entries = fs::read_dir(src).map_err(|e| format!("read_dir {}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", src.display()))?;
        if entry.path().is_file() {
            fs::copy(entry.path(), dst.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

fn snap_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.starts_with("shard-") && name.ends_with(".snap") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Scenario outcome: `Ok(detail)` describing what ran, `Err` a divergence.
type Scenario = Result<(), String>;

fn scenario_clean(cp: &CrashPoint, dir: &Path) -> Scenario {
    // Control: no mutation. Everything appended is present, so recovery
    // must reach the full acked history.
    check_recovery(cp, dir, cp.ops.len() as u64)
}

fn scenario_truncate(cp: &CrashPoint, dir: &Path, rng: &mut Rng) -> Scenario {
    let wal = dir.join("wal.log");
    let len = fs::metadata(&wal)
        .map_err(|e| format!("stat wal: {e}"))?
        .len();
    let lo = cp.durable_bytes.min(len);
    // Adversarial cut anywhere at or past the durable prefix — including
    // mid-varint and mid-checksum of a record.
    let cut = lo + rng.below(len - lo + 1);
    let f = fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .map_err(|e| format!("open wal: {e}"))?;
    f.set_len(cut).map_err(|e| format!("truncate wal: {e}"))?;
    drop(f);
    check_recovery(cp, dir, cp.durable_seq)
        .map_err(|e| format!("truncate at {cut}/{len} (durable {lo}): {e}"))
}

fn scenario_flip_wal(cp: &CrashPoint, dir: &Path, rng: &mut Rng) -> Scenario {
    let wal = dir.join("wal.log");
    let mut bytes = fs::read(&wal).map_err(|e| format!("read wal: {e}"))?;
    if bytes.is_empty() {
        return Ok(()); // nothing to corrupt (everything compacted)
    }
    let pos = rng.below(bytes.len() as u64) as usize;
    let bit = 1u8 << rng.below(8);
    bytes[pos] ^= bit;
    fs::write(&wal, &bytes).map_err(|e| format!("write wal: {e}"))?;
    // A flipped record must be *detected* (CRC) and discarded together
    // with everything after it — so recovery lands on some prefix and
    // must agree with the oracle there. A flip inside the durable region
    // is media corruption, not a crash, so no durability floor applies.
    check_recovery(cp, dir, 0).map_err(|e| format!("bit flip at byte {pos} bit {bit}: {e}"))
}

fn scenario_flip_snap(cp: &CrashPoint, dir: &Path, rng: &mut Rng) -> Scenario {
    let cfg = ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        ..cp.cfg.clone()
    };
    if snap_files(dir)?.is_empty() {
        // The seed never snapshotted: take one, so every seed flips a real
        // snapshot segment.
        let index = ShardedIndex::open(&cfg).map_err(|e| format!("recovery failed: {e}"))?;
        index
            .snapshot_now()
            .map_err(|e| format!("snapshot failed: {e}"))?;
    }
    let snaps = snap_files(dir)?;
    let target = &snaps[rng.below(snaps.len() as u64) as usize];
    let mut bytes = fs::read(target).map_err(|e| format!("read snap: {e}"))?;
    let regions =
        segment_regions(&bytes).ok_or_else(|| format!("{} is not a segment", target.display()))?;
    let region = &regions[rng.below(regions.len() as u64) as usize];
    let pos = region.start + rng.below(region.len() as u64) as usize;
    bytes[pos] ^= 1 << rng.below(8);
    fs::write(target, &bytes).map_err(|e| format!("write snap: {e}"))?;
    // A snapshot is a segment, CRC-framed end to end: any flip must make
    // recovery fail loudly rather than deliver a silently wrong index.
    match ShardedIndex::open(&cfg) {
        Err(_) => Ok(()),
        Ok(_) => Err(format!(
            "flipped byte {pos} (region {region:?}) of {} yet recovery reported success",
            target.display()
        )),
    }
}

/// The non-empty byte regions of a segment image, in file order: magic,
/// block frames (absent for an empty shard), footer, trailer (its first 8
/// bytes are the footer's offset).
fn segment_regions(bytes: &[u8]) -> Option<Vec<std::ops::Range<usize>>> {
    let (magic, len) = (ssj_store::segment::SEGMENT_MAGIC.len(), bytes.len());
    let footer = bytes
        .get(len.checked_sub(12)?..len - 4)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
        .filter(|&f| (magic as u64..len as u64 - 12).contains(&f))? as usize;
    let regions = [0..magic, magic..footer, footer..len - 12, len - 12..len];
    Some(regions.into_iter().filter(|r| !r.is_empty()).collect())
}

fn scenario_stray_tmp(cp: &CrashPoint, dir: &Path) -> Scenario {
    // A crash mid-snapshot leaves a partially written tmp file that never
    // got renamed; it must be swept aside, not mistaken for a snapshot.
    fs::write(dir.join("shard-0.snap.tmp"), b"partial garbage")
        .map_err(|e| format!("write tmp: {e}"))?;
    check_recovery(cp, dir, cp.ops.len() as u64).map_err(|e| format!("stray tmp file: {e}"))
}

fn scenario_mid_spill(cp: &CrashPoint, dir: &Path) -> Scenario {
    // A crash mid-spill leaves partial partition files, and a crash
    // mid-seal the first half of a snapshot segment under its stage name;
    // both are tmp-suffixed, so recovery must sweep them aside.
    let spill = dir.join(ssj_extern::spill::partition_file_name(0));
    fs::write(&spill, b"partial spill garbage").map_err(|e| format!("write stray spill: {e}"))?;
    let (states, seq) = oracle_state(cp, cp.ops.len() as u64)?;
    let image = states[0]
        .to_image(0, states.len(), seq)
        .map_err(|e| format!("encode image: {e}"))?;
    let stage = dir.join("shard-0.snap.tmp");
    fs::write(&stage, &image[..image.len() / 2]).map_err(|e| format!("write stage: {e}"))?;
    check_recovery(cp, dir, cp.ops.len() as u64).map_err(|e| format!("mid-spill debris: {e}"))?;
    match [spill, stage].into_iter().find(|p| p.exists()) {
        Some(left) => Err(format!("recovery left {} behind", left.display())),
        None => Ok(()),
    }
}

/// Runs the configured sweep (or replay). Returns every divergence.
pub fn run(config: &CrashtestConfig) -> Vec<Divergence> {
    let seeds: Vec<u64> = match config.replay {
        Some(seed) => vec![seed],
        None => (0..config.seeds).collect(),
    };
    let verbose = config.replay.is_some();
    let scratch_root = std::env::temp_dir().join(format!("ssj-crashtest-{}", std::process::id()));
    let mut divergences = Vec::new();
    for (done, &seed) in seeds.iter().enumerate() {
        let scratch = scratch_root.join(format!("seed-{seed}"));
        let _ = fs::remove_dir_all(&scratch);
        run_seed(seed, &scratch, verbose, &mut divergences);
        cluster::run_seed(seed, &scratch.join("cluster"), verbose, &mut divergences);
        let _ = fs::remove_dir_all(&scratch);
        if !verbose && (done + 1) % 50 == 0 {
            println!(
                "crashtest: {}/{} seeds, {} divergence(s)",
                done + 1,
                seeds.len(),
                divergences.len()
            );
        }
    }
    let _ = fs::remove_dir_all(&scratch_root);
    divergences
}

fn run_seed(seed: u64, scratch: &Path, verbose: bool, divergences: &mut Vec<Divergence>) {
    let cp = match drive(seed, scratch) {
        Ok(cp) => cp,
        Err(detail) => {
            println!("DIVERGENCE seed={seed} scenario=drive: {detail}");
            divergences.push(Divergence {
                seed,
                scenario: "drive",
                detail,
            });
            return;
        }
    };
    if verbose {
        println!(
            "seed {seed}: {} ops, {} shards, durable_seq {}, durable_bytes {}",
            cp.ops.len(),
            cp.cfg.shards,
            cp.durable_seq,
            cp.durable_bytes
        );
    }
    // Each scenario mutates its own copy of the crashed directory; the
    // scenario RNG is derived from the seed so replays are exact.
    let mut rng = Rng::new(seed ^ 0xC4A5_47E5);
    type ScenarioFn = Box<dyn FnMut(&CrashPoint, &Path, &mut Rng) -> Scenario>;
    let scenarios: [(&'static str, ScenarioFn); 6] = [
        ("clean", Box::new(|cp, d, _| scenario_clean(cp, d))),
        ("truncate", Box::new(scenario_truncate)),
        ("flip-wal", Box::new(scenario_flip_wal)),
        ("flip-snap", Box::new(scenario_flip_snap)),
        ("stray-tmp", Box::new(|cp, d, _| scenario_stray_tmp(cp, d))),
        ("mid-spill", Box::new(|cp, d, _| scenario_mid_spill(cp, d))),
    ];
    for (name, mut scenario) in scenarios {
        let dir = scratch.join(name);
        if let Err(detail) = copy_dir(&cp.dir, &dir) {
            divergences.push(Divergence {
                seed,
                scenario: name,
                detail,
            });
            continue;
        }
        match scenario(&cp, &dir, &mut rng) {
            Ok(()) => {
                if verbose {
                    println!("  {name:<10} ok");
                }
            }
            Err(detail) => {
                println!("DIVERGENCE seed={seed} scenario={name}: {detail}");
                println!("  replay: cargo xtask crashtest --replay {seed}");
                divergences.push(Divergence {
                    seed,
                    scenario: name,
                    detail,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
        assert_eq!(Rng::new(7).below(0), 0);
    }

    #[test]
    fn a_few_seeds_pass_clean() {
        let config = CrashtestConfig {
            seeds: 3,
            replay: None,
        };
        let divergences = run(&config);
        assert!(
            divergences.is_empty(),
            "crashtest smoke found divergences: {divergences:?}"
        );
    }
}
