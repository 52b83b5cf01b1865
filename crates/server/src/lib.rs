//! # lis-server — the concurrent serving front end
//!
//! The paper attacks learned indexes *as they serve queries*: poisoning
//! degrades the lookup cost every client pays. This crate turns any built
//! [`DynIndex`](lis_core::index::DynIndex) — monolithic or
//! `sharded:<name>:<N>` — into a served system:
//!
//! * [`queue`] — a bounded MPSC request queue with backpressure and
//!   adaptive micro-batch draining (flush on batch size or deadline);
//! * [`server`] — the worker pool pulling micro-batches through
//!   `DynIndex::lookup_batch`, per-request latency recording, and the
//!   [`ServeReport`] (p50/p99/max latency, throughput, mean batch
//!   size, mean lookup cost);
//! * [`histogram`] — the HDR-style log-linear [`LatencyHistogram`] behind
//!   those percentiles;
//! * [`mod@write`] — the online write plane: [`WriteOp`] requests drain a
//!   dedicated bounded queue into a writer thread that mutates the
//!   authoritative keyset and publishes epoch-swapped snapshots (readers
//!   never block on writers), screened by pluggable [`AdmissionPolicy`]
//!   filters — the hook where poisoning defenses meet live writes;
//! * [`durability`] — the durability plane: a length-prefixed,
//!   CRC-checksummed write-ahead log appended before any write ticket is
//!   acked, periodic checksummed snapshots with WAL truncation, and
//!   [`recover`] replaying the tail across full process restarts
//!   (torn final records truncated, mid-log corruption refused);
//! * [`fault`] — the chaos plane: seeded deterministic fault injection
//!   (worker death, latency spikes, writer stall/crash, delayed epoch
//!   publish) threaded through the serve and write paths, plus the
//!   [`RetryPolicy`] clients use to ride out transient faults with
//!   bounded deterministic backoff. Disabled injectors are a no-op on
//!   the hot path; degradation machinery — deadline-aware load shedding,
//!   worker supervision/respawn, writer-crash recovery, and
//!   attack-triggered epoch rollback via [`RollbackPolicy`] — lives in
//!   [`server`] and is driven through [`Server::builder`].
//!
//! One serve code path covers offline probe sweeps
//! ([`Server::serve_all`]), the online attack plane, and the chaos ladder.
//! A served answer equals a direct `DynIndex::lookup_batch` answer, which
//! is how the `lis` pipeline measures lookup cost; wall-clock latency and
//! throughput are measured by the separate `benchmark/` package.
//!
//! ## Example
//!
//! ```
//! use lis_core::index::IndexRegistry;
//! use lis_core::keys::KeySet;
//! use lis_server::{ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let ks = KeySet::from_keys((0..1_000u64).map(|i| i * 3).collect()).unwrap();
//! let index = Arc::new(IndexRegistry::with_defaults().build("rmi", &ks).unwrap());
//! let server = Server::start(Arc::clone(&index), ServeConfig::new());
//! let served = server.serve_all(ks.keys()).unwrap();
//! assert_eq!(served, index.lookup_batch(ks.keys()));
//! let report = server.shutdown();
//! assert_eq!(report.served, 1_000);
//! assert!(report.latency.p99() >= report.latency.p50());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durability;
mod epoch;
pub mod fault;
pub mod histogram;
pub mod pool;
pub mod queue;
pub mod server;
mod sync;
pub mod write;

pub use durability::{recover, Durability, DurabilityLevel, DurableStore, Recovered};
pub use fault::{seed_from_env, FaultConfig, FaultInjector, FaultSite, RetryPolicy, FAULT_SITES};
pub use histogram::LatencyHistogram;
pub use queue::{BatchPolicy, BatchQueue, PopTick};
pub use server::{
    IndexBuild, ResponseTicket, ServeConfig, ServeReport, Server, ServerBuilder, ServerHandle,
    WindowStats,
};
pub use write::{
    Admission, AdmissionChain, AdmissionPolicy, AdmitAll, DriftVerdict, RollbackPolicy, WriteOp,
    WriteStatus, WriteTicket, TRANSIENT_FAILURE_PREFIX,
};
