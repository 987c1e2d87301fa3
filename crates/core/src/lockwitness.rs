//! Runtime lock-discipline witness: ordered wrappers over `parking_lot`.
//!
//! The serving layer (`ssj-serve`) and the durable store (`ssj-store`)
//! share one canonical lock-acquisition order — the same order the static
//! pass `cargo xtask locklint` enforces at the source level (DESIGN.md
//! §5f). This module is the *exact* half of that signature→verify split:
//! every lock in the concurrent subsystem is declared with a
//! [`LockClass`] (a name plus a total-order rank) and an instance key
//! (e.g. the shard index), and in debug builds — or with the
//! `lock-witness` feature — every acquisition is checked against a
//! per-thread stack of currently-held locks:
//!
//! > a thread may only acquire a lock whose `(rank, key)` is **strictly
//! > greater** than that of every lock it already holds.
//!
//! Acquiring along a strict total order makes deadlock impossible (no
//! cycle in the waits-for graph can form), so any violation is reported
//! immediately — at the acquisition that breaks the order, on the thread
//! that breaks it — rather than as a once-a-month production hang. The
//! violation message carries a replayable trace: the thread's recent
//! acquire/release history plus the exact held-set at the faulting
//! acquisition.
//!
//! ## Canonical classes
//!
//! The workspace's lock registry (mirrored by `xtask locklint`):
//!
//! | class           | rank | keys        | holder                         |
//! |-----------------|------|-------------|--------------------------------|
//! | [`SHARD_INDEX`] | 0    | shard index | `ssj-serve` per-shard `RwLock` |
//! | [`SNAPSHOT_PUBLISH`] | 5 | 0        | `ssj-store` snapshot mutex     |
//! | [`STORE_WAL`]   | 10   | 0           | `ssj-store` WAL mutex          |
//!
//! Multi-shard acquisitions must walk shards in ascending order (strictly
//! increasing keys within rank 0), and the snapshot and WAL mutexes may
//! be taken while a shard lock is held (rank 0 → 5 → 10) but never the
//! other way around.
//!
//! ## Cost
//!
//! In release builds without the `lock-witness` feature the wrappers
//! compile down to the plain `parking_lot` primitives — the class/key
//! metadata is two words per lock and the tracking calls are empty.

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A named lock class with a rank in the canonical global order.
///
/// Declare one `static` per lock *role* (not per instance); instances of
/// a multi-instance class (the shard locks) are distinguished by the key
/// passed to the wrapper constructor.
#[derive(Debug)]
pub struct LockClass {
    /// Human-readable class name, used in traces and violation reports.
    pub name: &'static str,
    /// Position in the canonical order: lower ranks are acquired first.
    pub rank: u16,
}

impl LockClass {
    /// Declares a lock class at `rank` in the canonical order.
    pub const fn new(name: &'static str, rank: u16) -> Self {
        Self { name, rank }
    }
}

/// The per-shard index `RwLock`s in `ssj-serve` (key = shard index).
pub static SHARD_INDEX: LockClass = LockClass::new("shard-index", 0);
/// The snapshot-publish mutex in `ssj-store` (single instance per store,
/// key 0): one snapshot batch at a time.
pub static SNAPSHOT_PUBLISH: LockClass = LockClass::new("snapshot-publish", 5);
/// The WAL mutex in `ssj-store` (single instance, key 0).
pub static STORE_WAL: LockClass = LockClass::new("store-wal", 10);

/// Whether the witness is actively tracking acquisitions in this build.
pub const fn witness_active() -> bool {
    cfg!(any(debug_assertions, feature = "lock-witness"))
}

#[cfg(any(debug_assertions, feature = "lock-witness"))]
mod active {
    use super::LockClass;
    use std::cell::RefCell;

    /// How an acquisition takes the lock.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mode {
        /// Shared (`RwLock::read`).
        Read,
        /// Exclusive (`RwLock::write`).
        Write,
        /// Mutual exclusion (`Mutex::lock`).
        Lock,
    }

    impl Mode {
        fn verb(self) -> &'static str {
            match self {
                Mode::Read => "read",
                Mode::Write => "write",
                Mode::Lock => "lock",
            }
        }
    }

    struct Held {
        token: u64,
        name: &'static str,
        rank: u16,
        key: u32,
        mode: Mode,
    }

    /// Retained trace events per thread (enough to replay the local
    /// history leading up to a violation).
    const TRACE_CAP: usize = 128;

    struct ThreadWitness {
        held: Vec<Held>,
        trace: Vec<String>,
        next_token: u64,
    }

    thread_local! {
        static WITNESS: RefCell<ThreadWitness> = const {
            RefCell::new(ThreadWitness {
                held: Vec::new(),
                trace: Vec::new(),
                next_token: 0,
            })
        };
    }

    fn record(w: &mut ThreadWitness, line: String) {
        if w.trace.len() == TRACE_CAP {
            w.trace.remove(0);
        }
        w.trace.push(line);
    }

    /// Registers an acquisition, asserting the canonical order. Returns a
    /// token that [`exit`] uses to release the entry (guards may drop in
    /// any order, so release is by identity, not stack position).
    pub fn enter(class: &'static LockClass, key: u32, mode: Mode) -> u64 {
        WITNESS.with(|cell| {
            let mut w = cell.borrow_mut();
            let violation = w.held.iter().find(|h| (h.rank, h.key) >= (class.rank, key));
            let ordered = violation.is_none();
            if let Some(worst) = violation {
                let held: Vec<String> = w
                    .held
                    .iter()
                    .map(|h| format!("{} {}#{}", h.mode.verb(), h.name, h.key))
                    .collect();
                let trace = w.trace.join("\n  ");
                // `assert!` is the sanctioned invariant mechanism (lint
                // rule `no-panic` exempts it); the message is the
                // replayable per-thread trace.
                assert!(
                    ordered,
                    "lock-order violation: thread {:?} acquiring {} {}#{} while \
                     holding {} {}#{} (canonical order requires strictly \
                     ascending (rank, key))\nheld: [{}]\nthread trace (oldest \
                     first):\n  {}",
                    std::thread::current().id(),
                    mode.verb(),
                    class.name,
                    key,
                    worst.mode.verb(),
                    worst.name,
                    worst.key,
                    held.join(", "),
                    trace,
                );
            }
            let token = w.next_token;
            w.next_token += 1;
            record(
                &mut w,
                format!("acquire {} {}#{key}", mode.verb(), class.name),
            );
            w.held.push(Held {
                token,
                name: class.name,
                rank: class.rank,
                key,
                mode,
            });
            token
        })
    }

    /// Releases the entry registered under `token`.
    pub fn exit(token: u64) {
        // hotlint: allow(hot-alloc, fn): debug-only witness bookkeeping — enter/exit are invoked only under cfg(debug_assertions) or the lock-witness feature (see sync.rs), so this trace formatting compiles out of release hot paths.
        WITNESS.with(|cell| {
            let mut w = cell.borrow_mut();
            if let Some(at) = w.held.iter().rposition(|h| h.token == token) {
                let h = w.held.remove(at);
                record(
                    &mut w,
                    format!("release {} {}#{}", h.mode.verb(), h.name, h.key),
                );
            }
        });
    }

    /// The calling thread's recent acquire/release trace, oldest first.
    pub fn thread_trace() -> Vec<String> {
        WITNESS.with(|cell| cell.borrow().trace.clone())
    }

    /// How many locks the calling thread currently holds.
    pub fn held_count() -> usize {
        WITNESS.with(|cell| cell.borrow().held.len())
    }
}

#[cfg(any(debug_assertions, feature = "lock-witness"))]
pub use active::Mode;

/// The calling thread's recent acquire/release trace (empty when the
/// witness is compiled out).
pub fn thread_trace() -> Vec<String> {
    #[cfg(any(debug_assertions, feature = "lock-witness"))]
    {
        active::thread_trace()
    }
    #[cfg(not(any(debug_assertions, feature = "lock-witness")))]
    {
        Vec::new()
    }
}

/// How many locks the calling thread currently holds (0 when the witness
/// is compiled out).
pub fn held_count() -> usize {
    #[cfg(any(debug_assertions, feature = "lock-witness"))]
    {
        active::held_count()
    }
    #[cfg(not(any(debug_assertions, feature = "lock-witness")))]
    {
        0
    }
}

/// Witness bookkeeping attached to a live guard: the token under which
/// the acquisition was registered, released on drop.
#[derive(Debug)]
struct Registration {
    #[cfg(any(debug_assertions, feature = "lock-witness"))]
    token: u64,
}

impl Registration {
    #[cfg(any(debug_assertions, feature = "lock-witness"))]
    fn acquire(class: &'static LockClass, key: u32, mode: active::Mode) -> Self {
        Self {
            token: active::enter(class, key, mode),
        }
    }

    #[cfg(not(any(debug_assertions, feature = "lock-witness")))]
    fn acquire(_class: &'static LockClass, _key: u32) -> Self {
        Self {}
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, feature = "lock-witness"))]
        active::exit(self.token);
    }
}

// The `acquire` shims differ in arity between active/inactive builds;
// these three helpers give the lock types one spelling for both.
#[cfg(any(debug_assertions, feature = "lock-witness"))]
fn register_read(class: &'static LockClass, key: u32) -> Registration {
    Registration::acquire(class, key, active::Mode::Read)
}
#[cfg(any(debug_assertions, feature = "lock-witness"))]
fn register_write(class: &'static LockClass, key: u32) -> Registration {
    Registration::acquire(class, key, active::Mode::Write)
}
#[cfg(any(debug_assertions, feature = "lock-witness"))]
fn register_lock(class: &'static LockClass, key: u32) -> Registration {
    Registration::acquire(class, key, active::Mode::Lock)
}
#[cfg(not(any(debug_assertions, feature = "lock-witness")))]
fn register_read(class: &'static LockClass, key: u32) -> Registration {
    Registration::acquire(class, key)
}
#[cfg(not(any(debug_assertions, feature = "lock-witness")))]
fn register_write(class: &'static LockClass, key: u32) -> Registration {
    Registration::acquire(class, key)
}
#[cfg(not(any(debug_assertions, feature = "lock-witness")))]
fn register_lock(class: &'static LockClass, key: u32) -> Registration {
    Registration::acquire(class, key)
}

/// A `parking_lot::RwLock` that witnesses every acquisition against the
/// canonical lock order.
#[derive(Debug)]
pub struct WitnessRwLock<T> {
    class: &'static LockClass,
    key: u32,
    inner: RwLock<T>,
}

impl<T> WitnessRwLock<T> {
    /// Creates the lock as instance `key` of `class`.
    pub const fn new(class: &'static LockClass, key: u32, value: T) -> Self {
        Self {
            class,
            key,
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared access; witnesses the acquisition first.
    pub fn read(&self) -> WitnessReadGuard<'_, T> {
        let registration = register_read(self.class, self.key);
        WitnessReadGuard {
            inner: self.inner.read(),
            _registration: registration,
        }
    }

    /// Acquires exclusive access; witnesses the acquisition first.
    pub fn write(&self) -> WitnessWriteGuard<'_, T> {
        let registration = register_write(self.class, self.key);
        WitnessWriteGuard {
            inner: self.inner.write(),
            _registration: registration,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// Shared-access guard from [`WitnessRwLock::read`].
pub struct WitnessReadGuard<'a, T> {
    // Field order: the real guard drops (releasing the lock) before the
    // registration unwinds the witness stack, so a racing acquirer on
    // another thread never observes bookkeeping ahead of reality on this
    // one — per-thread state makes either order safe, but this one keeps
    // the trace timestamps honest.
    inner: RwLockReadGuard<'a, T>,
    _registration: Registration,
}

impl<T> std::ops::Deref for WitnessReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive-access guard from [`WitnessRwLock::write`].
pub struct WitnessWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    _registration: Registration,
}

impl<T> std::ops::Deref for WitnessWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for WitnessWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A `parking_lot::Mutex` that witnesses every acquisition against the
/// canonical lock order.
#[derive(Debug)]
pub struct WitnessMutex<T> {
    class: &'static LockClass,
    key: u32,
    inner: Mutex<T>,
}

impl<T> WitnessMutex<T> {
    /// Creates the mutex as instance `key` of `class`.
    pub const fn new(class: &'static LockClass, key: u32, value: T) -> Self {
        Self {
            class,
            key,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex; witnesses the acquisition first.
    pub fn lock(&self) -> WitnessMutexGuard<'_, T> {
        let registration = register_lock(self.class, self.key);
        WitnessMutexGuard {
            inner: self.inner.lock(),
            _registration: registration,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// Guard from [`WitnessMutex::lock`].
pub struct WitnessMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    _registration: Registration,
}

impl<T> std::ops::Deref for WitnessMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for WitnessMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static T_LOW: LockClass = LockClass::new("test-low", 100);
    static T_HIGH: LockClass = LockClass::new("test-high", 101);

    #[test]
    fn ascending_acquisition_is_clean() {
        let a = WitnessRwLock::new(&T_LOW, 0, 1u32);
        let b = WitnessRwLock::new(&T_LOW, 1, 2u32);
        let c = WitnessMutex::new(&T_HIGH, 0, 3u32);
        let ga = a.read();
        let gb = b.read();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
        if witness_active() {
            assert_eq!(held_count(), 3);
        }
        drop(ga);
        drop(gc);
        drop(gb);
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn out_of_order_drop_keeps_bookkeeping_consistent() {
        let a = WitnessRwLock::new(&T_LOW, 0, 0u32);
        let b = WitnessRwLock::new(&T_LOW, 1, 0u32);
        let ga = a.write();
        let gb = b.write();
        drop(ga); // released before the later acquisition: not a stack pop
        drop(gb);
        assert_eq!(held_count(), 0);
        // The order discipline still applies after unordered drops.
        let _ga = a.read();
        let _gb = b.read();
    }

    #[test]
    fn write_guard_mutates() {
        let a = WitnessRwLock::new(&T_LOW, 0, 0u32);
        *a.write() += 7;
        assert_eq!(*a.read(), 7);
        let m = WitnessMutex::new(&T_HIGH, 0, 0u32);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn trace_records_acquires_and_releases() {
        if !witness_active() {
            return;
        }
        let a = WitnessRwLock::new(&T_LOW, 3, 0u32);
        drop(a.read());
        let trace = thread_trace();
        let tail: Vec<&String> = trace.iter().rev().take(2).collect();
        assert!(tail.iter().any(|l| l.contains("acquire read test-low#3")));
        assert!(tail.iter().any(|l| l.contains("release read test-low#3")));
    }
}
