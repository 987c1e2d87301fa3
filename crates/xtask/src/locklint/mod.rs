//! `cargo xtask locklint` — interprocedural lock-order and
//! blocking-under-lock static analysis (DESIGN.md §5f).
//!
//! The concurrent subsystem (`ssj-serve` + `ssj-store`) follows one
//! canonical lock order: per-shard `shard-index` locks in ascending shard
//! order first, then the `snapshot-publish` mutex, then the `store-wal`
//! mutex. The runtime lock witness
//! (`ssj_core::lockwitness`) checks that order exactly on every debug
//! acquisition; this pass checks it *conservatively* over all source —
//! the same signature→verify split the paper applies to joins: a cheap
//! conservative filter whose candidates an exact mechanism confirms.
//!
//! The shared engine ([`crate::engine`]) extracts per-function event
//! lists under this pass's table — lock acquisitions matched against the
//! lock-site registry ([`LOCK_SITES`]), blocking operations
//! ([`BLOCKING`]), calls, `drop(guard)` releases, statement and scope
//! ends. Per-function summaries (which lock classes a function may
//! acquire, whether it may block) propagate over the name-union call
//! graph to a fixpoint, and a replay of each function's events against
//! those summaries ([`analysis`]) reports:
//!
//! | id                    | finding |
//! |-----------------------|---------|
//! | `lock-order`          | acquisition (direct or via call) that descends the canonical rank order, or re-acquires a held non-reentrant class |
//! | `lock-order-cycle`    | a cycle in the aggregated class-order graph (deadlock potential) |
//! | `multi-shard-order`   | iterated/nested acquisition of a multi-instance class outside the canonical helpers (ascending order not statically provable) |
//! | `blocking-under-lock` | fsync/write/accept/recv/send/sleep (or a call that may reach one) while any lock is held |
//! | `guard-lifetime`      | a guard stored into an `Option`/collection at the acquisition site |
//! | `locklint-annotation` | malformed suppression annotation (unknown rule or empty justification) |
//! | `locklint-scope`      | any annotation inside `crates/core` (zero-allowlist policy: core's lock discipline has no exemptions) |
//!
//! Deliberate violations carry the engine's in-source annotation
//! (`// locklint: allow(blocking-under-lock[, fn]): reason…`), and
//! `crates/core` may carry none at all.

pub mod analysis;

use crate::engine::{Kind, Pass, Table};

/// Rule id: rank-order violation or non-reentrant re-acquisition.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule id: cycle in the aggregated lock-class order graph.
pub const LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
/// Rule id: un-audited multi-instance (per-shard) acquisition.
pub const MULTI_SHARD_ORDER: &str = "multi-shard-order";
/// Rule id: blocking operation reachable while a lock is held.
pub const BLOCKING_UNDER_LOCK: &str = "blocking-under-lock";
/// Rule id: guard stored into an `Option`/collection at the acquire site.
pub const GUARD_LIFETIME: &str = "guard-lifetime";
/// Rule id: malformed `// locklint: allow(…)` annotation.
pub const ANNOTATION_RULE: &str = "locklint-annotation";
/// Rule id: annotation inside `crates/core` (zero-allowlist policy).
pub const SCOPE_RULE: &str = "locklint-scope";

/// The analysis rules an annotation may suppress.
pub const SUPPRESSIBLE_RULES: [&str; 5] = [
    LOCK_ORDER,
    LOCK_ORDER_CYCLE,
    MULTI_SHARD_ORDER,
    BLOCKING_UNDER_LOCK,
    GUARD_LIFETIME,
];

/// One lock class in the canonical order (mirrors
/// `ssj_core::lockwitness`: `shard-index` rank 0, `snapshot-publish` rank 5,
/// `store-wal` rank 10).
#[derive(Debug, Clone, Copy)]
pub struct LockClassDef {
    /// Class name as reported in findings.
    pub name: &'static str,
    /// Canonical rank: lower ranks must be acquired first.
    pub rank: u16,
    /// Whether the class has many instances (per-shard locks) whose keys
    /// must themselves ascend — intra-class nesting is then order-relevant.
    pub multi_instance: bool,
}

/// The workspace lock registry, in rank order.
pub const CLASSES: [LockClassDef; 3] = [
    LockClassDef {
        name: "shard-index",
        rank: 0,
        multi_instance: true,
    },
    LockClassDef {
        name: "snapshot-publish",
        rank: 5,
        multi_instance: false,
    },
    LockClassDef {
        name: "store-wal",
        rank: 10,
        multi_instance: false,
    },
];

const SHARD_INDEX: usize = 0;
const SNAPSHOT_PUBLISH: usize = 1;
const STORE_WAL: usize = 2;

/// The lock-site registry: how each named lock is acquired in source
/// (`.index` in `ssj-serve`, `.publishing` and `.wal` in `ssj-store`).
/// Field-qualified method chains match at the dot; the canonical
/// guard-returning helpers match as calls by name — the helper's own body
/// is the audited, annotated acquisition, and call sites inherit it.
pub const LOCK_SITES: &[(&str, Kind)] = &[
    (".index.read(", acquire(SHARD_INDEX, "read")),
    (".index.write(", acquire(SHARD_INDEX, "write")),
    (".publishing.lock(", acquire(SNAPSHOT_PUBLISH, "lock")),
    (".wal.lock(", acquire(STORE_WAL, "lock")),
    ("lock_all_read", acquire(SHARD_INDEX, "read")),
    ("lock_owner_write", acquire(SHARD_INDEX, "write")),
];

const fn acquire(class: usize, mode: &'static str) -> Kind {
    Kind::Acquire { class, mode }
}

/// Blocking operations: method chains, then bare calls (shared with
/// hotlint's `hot-blocking`).
pub const BLOCKING: &[(&str, Kind)] = &[
    (".sync_data(", Kind::Block("fsync")),
    (".sync_all(", Kind::Block("fsync")),
    (".write_all(", Kind::Block("file/socket write")),
    (".set_len(", Kind::Block("file truncation")),
    (".accept(", Kind::Block("socket accept")),
    (".recv(", Kind::Block("blocking channel receive")),
    (".recv_timeout(", Kind::Block("blocking channel receive")),
    (
        ".send(",
        Kind::Block("bounded channel send (blocks when full)"),
    ),
    ("sleep", Kind::Block("thread::sleep")),
];

/// Methods of the guarded per-shard data (`JaccardIndex`) and other pure
/// container operations. A dotted call to one of these is a data
/// operation on an already-held guard, not a service-layer entry point —
/// without this cut, the conservative name-union call resolver would map
/// e.g. `guard.insert(…)` onto `ShardedIndex::insert` (which acquires the
/// very lock being held) and report a false self-deadlock.
pub const DATA_METHODS: &[&str] = &[
    "insert",
    "remove",
    "try_remove",
    "query_counted",
    "dump_live",
    "len",
    "is_empty",
    "next_id",
    "push",
];

/// The locklint pass.
pub static PASS: Pass = Pass {
    tool: "locklint",
    rules: &SUPPRESSIBLE_RULES,
    annotation_rule: ANNOTATION_RULE,
    core_ban: Some((
        SCOPE_RULE,
        "core must satisfy every rule outright — fix the code or move the locking out of core",
    )),
    table: Table {
        tokens: &[LOCK_SITES, BLOCKING],
        ctors: &[],
        macros: &[],
        call_cut: &[DATA_METHODS],
        releases: true,
        cut_ctor_names: false,
    },
    analyze: analysis::analyze,
    counter: None,
};
