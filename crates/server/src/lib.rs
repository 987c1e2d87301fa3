//! # ssj-serve — a concurrent similarity-search service
//!
//! Long-running serving layer over [`ssj_core::index::JaccardIndex`]: the
//! index is sharded by content hash behind per-shard `RwLock`s, every
//! request runs on the thread that calls it under admission control (an
//! in-flight bound with explicit `Overloaded` responses, never a
//! panic or an unbounded wait), and newline-delimited JSON frontends serve
//! TCP and stdio clients.
//!
//! Responses expose the internal write order (`seq` / `seen_seq`), making
//! every concurrent run exactly checkable against a single-threaded
//! replay — see the concurrency tests and `DESIGN.md` § Serving layer.
//!
//! ```
//! use ssj_serve::{Request, Response, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let h = server.handle();
//! let id = match h.call(Request::Insert { elems: vec![1, 2, 3] }) {
//!     Response::Inserted { id, .. } => id,
//!     other => panic!("unexpected {other:?}"),
//! };
//! match h.call(Request::Query { elems: vec![1, 2, 3] }) {
//!     Response::Matches { ids, .. } => assert_eq!(ids, vec![id]),
//!     other => panic!("unexpected {other:?}"),
//! }
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

pub mod config;
pub mod metrics;
pub mod net;
pub mod service;
pub mod wire;

pub use config::ServerConfig;
pub use metrics::StatsSnapshot;
pub use service::{Handle, Request, Response, ServeScratch, Server, ShardedIndex, WriteResult};
pub use ssj_store::SyncMode;
