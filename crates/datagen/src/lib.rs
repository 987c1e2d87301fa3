//! # ssj-datagen — workload generators for the reproduction
//!
//! The paper evaluates on a proprietary address corpus, DBLP, and a uniform
//! synthetic workload. This crate regenerates all three shapes
//! deterministically (see DESIGN.md "Data substitutions"):
//!
//! * [`address`] — US-style org+address strings with typo'd duplicates
//!   (stand-in for the proprietary 1M-record address data);
//! * [`dblp`] — author+title bibliography strings (stand-in for DBLP);
//! * [`uniform`] — the paper's synthetic equi-size workload (50 elements
//!   from a 10,000-element domain, planted similar pairs);
//! * [`zipf`] — skewed-element collections for stress tests;
//! * [`typo`] — the shared error model;
//! * [`adversarial`] — seeded corner-case workloads for the differential
//!   tester (`cargo xtask difftest`);
//! * [`spill`] — skewed, heterogeneous workloads stressing the
//!   out-of-core executor (`ssj-extern`): hot signature buckets, varied
//!   set sizes, planted duplicate groups.

#![warn(missing_docs)]

pub mod address;
pub mod adversarial;
pub mod dblp;
pub mod spill;
pub mod typo;
pub mod uniform;
pub mod zipf;

pub use address::{generate_addresses, AddressConfig};
pub use adversarial::{generate_adversarial, AdversarialWorkload};
pub use dblp::{generate_dblp, DblpConfig};
pub use spill::{generate_spill, SpillConfig};
pub use typo::{apply_typos, drop_token, random_edit};
pub use uniform::{generate_uniform, UniformConfig};
pub use zipf::{generate_zipf, Zipf, ZipfConfig};
