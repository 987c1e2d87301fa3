//! # ssjoin — exact set-similarity joins (umbrella crate)
//!
//! Re-exports the whole workspace behind one dependency: the core algorithms
//! ([`core`]: PartEnum, WtEnum, the join driver), the paper's baselines
//! ([`baselines`]: prefix filter, identity/probe-count, minhash LSH), string
//! similarity joins ([`text`]), workload generators ([`datagen`]), and the
//! mini relational engine used to replay the paper's DBMS query plans
//! ([`minidb`]), and compact binary persistence ([`io`]).
//!
//! See `examples/` for runnable walkthroughs and `DESIGN.md` for the
//! paper-to-module map.

pub use ssj_baselines as baselines;
pub use ssj_core as core;
pub use ssj_datagen as datagen;
pub use ssj_io as io;
pub use ssj_minidb as minidb;
pub use ssj_text as text;

/// Convenient re-exports of the most used items across the workspace.
pub mod prelude {
    pub use ssj_baselines::{LshJaccard, NaiveJoin, PrefixFilter};
    pub use ssj_core::prelude::*;
}
