//! # lis-core — learned index substrate
//!
//! The data-structure substrate for reproducing *"The Price of Tailoring
//! the Index to Your Data: Poisoning Attacks on Learned Index Structures"*
//! (Kornaropoulos, Ren, Tamassia — SIGMOD 2022).
//!
//! This crate implements, from scratch, everything the paper's attacks are
//! mounted against:
//!
//! * [`keys`] — sorted duplicate-free keysets, ranks, gap enumeration,
//!   and staged batch writes merged in one pass;
//! * [`stats`] — numerically robust sample moments over CDF pairs;
//! * [`linreg`] — the closed-form linear regression on CDFs (Theorem 1),
//!   the second-stage building block of the RMI;
//! * [`rmi`] — the two-stage Recursive Model Index with a linear root,
//!   equal-size partitions, oracle or root-predicted routing, and
//!   last-mile search;
//! * [`index`] — the unified [`LearnedIndex`] trait, the shared [`Lookup`]
//!   result, the object-safe [`DynIndex`] wrapper, and the string-keyed
//!   [`IndexRegistry`] every harness builds victims through;
//! * [`shard`] — range-partitioned sharded serving over any structure
//!   (`sharded:<name>:<N>` registry names, scoped-thread-pool fan-out);
//! * [`search`] — exponential/binary/branchless local search with
//!   comparison counting, including the error-bounded window search the
//!   lookup hot path runs;
//! * [`scratch`] — pooled scratch buffers keeping batched lookups free of
//!   per-batch heap allocation, and self-removing scratch directories;
//! * [`par`] — the scoped-thread fan-out discipline the build plane
//!   shares (contiguous chunks, capped workers, bit-identical output
//!   regardless of thread count);
//! * [`btree`] — a bulk-loaded B+-tree baseline for lookup comparisons;
//! * [`metrics`] — Ratio Loss and the reporting types behind the paper's
//!   figures.
//!
//! ## Quick example
//!
//! ```
//! use lis_core::keys::KeySet;
//! use lis_core::rmi::{Rmi, RmiConfig};
//!
//! let ks = KeySet::from_keys((0..1000u64).map(|i| i * 7).collect()).unwrap();
//! let rmi = Rmi::build(&ks, &RmiConfig::linear_root(10)).unwrap();
//! let hit = rmi.lookup(700);
//! assert_eq!(hit.pos, Some(100));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alex;
pub mod bloom;
pub mod btree;
pub mod deep_rmi;
pub mod error;
pub mod hashindex;
pub mod index;
pub mod keys;
pub mod linreg;
pub mod metrics;
pub mod par;
pub mod pla;
pub mod rmi;
pub mod scratch;
pub mod search;
pub mod shard;
pub mod stats;

pub use error::{LisError, Result};
pub use index::{DynIndex, ErasedIndex, IndexRegistry, LearnedIndex, Lookup};
pub use keys::{Gap, Key, KeyDomain, KeySet, KeyView, Rank, Stage};
pub use linreg::LinearModel;
pub use rmi::{Rmi, RmiConfig, Routing};
pub use scratch::{ScratchDir, ScratchPool};
pub use shard::{parse_sharded_name, ShardConfig, ShardedIndex};
