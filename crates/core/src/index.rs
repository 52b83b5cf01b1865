//! The unified index API: one trait, one lookup result, one registry.
//!
//! The paper mounts the *same* poisoning campaign against many victim
//! structures — regression CDF models, two-stage and multi-stage RMIs,
//! updatable ALEX-style indexes, error-bounded PLA indexes, learned hash
//! tables, and the B+-tree baseline. Composing *any* workload × attack ×
//! defense × victim requires every victim to speak the same language:
//!
//! * [`Lookup`] — the shared query result (position, membership, cost);
//! * [`LearnedIndex`] — the typed build/query trait every structure
//!   implements;
//! * [`DynIndex`] / [`ErasedIndex`] — the object-safe form, so harnesses
//!   can hold a heterogeneous fleet of victims;
//! * [`IndexRegistry`] — string-keyed construction (`"rmi"`, `"btree"`,
//!   `"pla"`, ...) for CLIs and experiment configs.
//!
//! ## Example
//!
//! ```
//! use lis_core::index::{IndexRegistry, LearnedIndex};
//! use lis_core::keys::KeySet;
//!
//! let ks = KeySet::from_keys((0..500u64).map(|i| i * 3).collect()).unwrap();
//! let registry = IndexRegistry::with_defaults();
//! for name in registry.names() {
//!     let index = registry.build(name, &ks).unwrap();
//!     let hit = index.lookup(ks.keys()[123]);
//!     assert!(hit.found, "{name} lost a member key");
//! }
//! ```

use crate::error::{LisError, Result};
use crate::keys::{Key, KeySet};
use crate::scratch::ScratchPool;
use crate::search::SearchResult;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Below this batch size the bucket-scatter pass of
/// [`build_probe_order`] costs more than it saves; fall straight through
/// to the comparison sort.
const RADIX_SORT_MIN: usize = 1_024;

/// Distribution-pass geometry of [`build_probe_order`]: scattering into
/// `2^11` buckets leaves ~8 probes per bucket at the default 16k batch,
/// small enough that the finishing comparison sorts are near-linear
/// (measured 7.8 ns/probe total vs 24.6 ns for `sort_unstable` alone;
/// 256 buckets of ~64 still paid 18 ns in quadratic insertion sorting).
const BUCKET_BITS: u32 = 11;
const BUCKETS: usize = 1 << BUCKET_BITS;

/// Fills `order` with the batch's `(key, slot)` pairs in ascending
/// `(key, slot)` order — the single largest fixed cost of the
/// sorted-batch serve path (a comparison sort runs ~24 ns/probe at
/// batch 16k, a quarter of the whole lookup).
///
/// Large batches take a distribution pass instead: each probe is
/// scattered straight from the caller's key slice into its bucket — one
/// of [`BUCKETS`], keyed on the top [`BUCKET_BITS`] *significant* bits
/// of the batch's key range — then each bucket (a handful of probes at
/// the default batch size) is finished with `sort_unstable`. Scattering
/// in slot order is stable, so the final order is exactly the total
/// `(key, slot)` order of a plain `sort_unstable`, and every downstream
/// serve sweep is bit-identical. Skewed key distributions merely
/// unbalance the buckets and degrade toward the comparison sort — never
/// past it asymptotically, and correctness never depends on balance.
/// Pre-sorted batches (a common upstream discipline) short-circuit
/// after a linear scan.
fn build_probe_order(keys: &[Key], order: &mut Vec<(Key, usize)>) {
    order.clear();
    if keys.is_sorted() {
        order.extend(keys.iter().copied().zip(0..));
        return;
    }
    if keys.len() < RADIX_SORT_MIN {
        order.extend(keys.iter().copied().zip(0..));
        order.sort_unstable();
        return;
    }
    let max_key = keys.iter().copied().max().unwrap_or(0);
    let significant = u64::BITS - max_key.leading_zeros();
    let shift = significant.saturating_sub(BUCKET_BITS);
    let mut counts = [0usize; BUCKETS];
    for &k in keys {
        counts[(k >> shift) as usize & (BUCKETS - 1)] += 1;
    }
    let mut starts = [0usize; BUCKETS];
    let mut acc = 0;
    for (start, &count) in starts.iter_mut().zip(counts.iter()) {
        *start = acc;
        acc += count;
    }
    order.resize(keys.len(), (Key::MIN, 0));
    let mut cursors = starts;
    for (slot, &k) in keys.iter().enumerate() {
        let bucket = (k >> shift) as usize & (BUCKETS - 1);
        order[cursors[bucket]] = (k, slot);
        cursors[bucket] += 1;
    }
    for (&start, &count) in starts.iter().zip(counts.iter()) {
        if count > 1 {
            order[start..start + count].sort_unstable();
        }
    }
}

/// Shared scaffolding of the sorted-batch lookup paths (RMI, deep RMI,
/// PLA): clears `out`, sorts the probes together with their original
/// slots through a pooled permutation buffer, serves them in ascending
/// key order through `serve` (which owns any routing cursor state), and
/// scatters the answers back into probe order. Steady-state calls reuse
/// the pooled buffer and `out`'s capacity — no heap allocation.
pub(crate) fn sorted_batch_into(
    scratch: &ScratchPool<Vec<(Key, usize)>>,
    keys: &[Key],
    out: &mut Vec<Lookup>,
    mut serve: impl FnMut(Key) -> Lookup,
) {
    // lis-analysis: begin(zero-alloc)
    out.clear();
    if keys.is_empty() {
        return;
    }
    // lis-analysis: allow(zero-alloc) — `Vec::new` is the cold-path pool
    // fill for the first call; steady state pops a warmed buffer.
    let mut order = scratch.acquire_or(Vec::new);
    build_probe_order(keys, &mut order);
    out.resize(keys.len(), Lookup::membership(false, 0));
    for &(k, slot) in order.iter() {
        out[slot] = serve(k);
    }
    scratch.release(order);
    // lis-analysis: end(zero-alloc)
}

/// The outcome of a single index lookup, shared by every structure in the
/// workspace (replacing the former per-structure result types).
///
/// Positional indexes (RMI, PLA, B+-tree) report the key's global position
/// in the sorted array; membership-only structures (ALEX leaves, hash
/// tables) report `found` with `pos = None`. `cost` is the structure's
/// native unit of query work — key comparisons for search-based indexes,
/// slot or chain probes for the others — the quantity poisoning inflates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Global 0-based position of the key, when the structure tracks one.
    pub pos: Option<usize>,
    /// Whether the key is present.
    pub found: bool,
    /// Units of work spent answering (comparisons or probes).
    pub cost: usize,
}

impl Lookup {
    /// A positional result: `found` follows from `pos`.
    pub fn position(pos: Option<usize>, cost: usize) -> Self {
        Self {
            pos,
            found: pos.is_some(),
            cost,
        }
    }

    /// A membership-only result (no position tracked).
    pub fn membership(found: bool, cost: usize) -> Self {
        Self {
            pos: None,
            found,
            cost,
        }
    }
}

impl From<SearchResult> for Lookup {
    fn from(r: SearchResult) -> Self {
        Self::position(r.pos, r.comparisons)
    }
}

/// The unified build-and-query interface of every index structure.
///
/// `loss` is the structure's training-quality scalar — the MSE of its
/// fitted model(s) where one exists, `0.0` for purely structural indexes
/// (B+-tree, ALEX gapped arrays) — i.e. the numerator/denominator of the
/// paper's Ratio Loss. `memory_bytes` is an estimate of the resident size,
/// the footprint the PLA attack inflates.
pub trait LearnedIndex: Sized {
    /// Build-time configuration.
    type Config;

    /// Builds the index over a keyset.
    fn build(ks: &KeySet, cfg: &Self::Config) -> Result<Self>;

    /// Looks up one key.
    fn lookup(&self, key: Key) -> Lookup;

    /// Looks up a batch of keys into a caller-owned buffer — the
    /// zero-allocation hot path.
    ///
    /// `out` is cleared and refilled with one [`Lookup`] per probe, in
    /// probe order; a reused buffer keeps steady-state batches free of
    /// heap allocation. The default loops over [`LearnedIndex::lookup`];
    /// structures with batch-level leverage (RMI/PLA sorted-batch
    /// routing, sharded scatter/gather) override it. Overrides must
    /// return results identical to per-key [`LearnedIndex::lookup`] —
    /// `found`, position, *and* `cost` — so batching never changes what
    /// an experiment measures (`tests/property_hotpath.rs` enforces
    /// this).
    fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        out.clear();
        out.reserve(keys.len());
        out.extend(keys.iter().map(|&k| self.lookup(k)));
    }

    /// Looks up a batch of keys, allocating the result vector.
    ///
    /// Convenience wrapper over [`LearnedIndex::lookup_batch_into`];
    /// hot loops that serve many batches should reuse a buffer through
    /// that method instead.
    fn lookup_batch(&self, keys: &[Key]) -> Vec<Lookup> {
        let mut out = Vec::new();
        self.lookup_batch_into(keys, &mut out);
        out
    }

    /// Training loss of the structure's model(s); `0.0` when model-free.
    fn loss(&self) -> f64;

    /// Estimated resident memory in bytes.
    fn memory_bytes(&self) -> usize;

    /// Number of indexed keys.
    fn len(&self) -> usize;

    /// `true` iff no keys are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Object-safe mirror of [`LearnedIndex`], blanket-implemented for every
/// implementor, so harnesses can hold `Box<dyn ErasedIndex>` fleets.
pub trait ErasedIndex: Send + Sync {
    /// Looks up one key.
    fn lookup(&self, key: Key) -> Lookup;
    /// Looks up a batch of keys (one virtual dispatch for the whole batch).
    fn lookup_batch(&self, keys: &[Key]) -> Vec<Lookup>;
    /// Looks up a batch into a caller-owned buffer (one virtual dispatch,
    /// no allocation once the buffer is warm).
    fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>);
    /// Reference batch path: one virtual dispatch, then a plain per-key
    /// loop over the concrete [`LearnedIndex::lookup`] — the pre-batching
    /// serve path, kept callable so benches and property tests can
    /// compare the optimized batch path against it.
    fn lookup_each_into(&self, keys: &[Key], out: &mut Vec<Lookup>);
    /// Training loss of the structure's model(s).
    fn loss(&self) -> f64;
    /// Estimated resident memory in bytes.
    fn memory_bytes(&self) -> usize;
    /// Number of indexed keys.
    fn len(&self) -> usize;
    /// `true` iff no keys are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: LearnedIndex + Send + Sync> ErasedIndex for T {
    fn lookup(&self, key: Key) -> Lookup {
        LearnedIndex::lookup(self, key)
    }

    fn lookup_batch(&self, keys: &[Key]) -> Vec<Lookup> {
        LearnedIndex::lookup_batch(self, keys)
    }

    fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        LearnedIndex::lookup_batch_into(self, keys, out)
    }

    fn lookup_each_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        out.clear();
        out.reserve(keys.len());
        out.extend(keys.iter().map(|&k| LearnedIndex::lookup(self, k)));
    }

    fn loss(&self) -> f64 {
        LearnedIndex::loss(self)
    }

    fn memory_bytes(&self) -> usize {
        LearnedIndex::memory_bytes(self)
    }

    fn len(&self) -> usize {
        LearnedIndex::len(self)
    }
}

/// A named, type-erased index — what [`IndexRegistry::build`] hands out.
pub struct DynIndex {
    name: String,
    inner: Box<dyn ErasedIndex>,
}

impl DynIndex {
    /// Wraps a concrete index under a display name.
    pub fn new(name: impl Into<String>, index: impl ErasedIndex + 'static) -> Self {
        Self {
            name: name.into(),
            inner: Box::new(index),
        }
    }

    /// The registry name (or caller-chosen label) of the wrapped index.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up one key.
    pub fn lookup(&self, key: Key) -> Lookup {
        self.inner.lookup(key)
    }

    /// Looks up a batch of keys through a single virtual dispatch.
    pub fn lookup_batch(&self, keys: &[Key]) -> Vec<Lookup> {
        self.inner.lookup_batch(keys)
    }

    /// Looks up a batch into a caller-owned buffer — single virtual
    /// dispatch, and no heap allocation once `out` (and the index's own
    /// scratch) are warm. `out` is cleared and refilled in probe order.
    pub fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        self.inner.lookup_batch_into(keys, out)
    }

    /// Reference per-key batch path (one dispatch, then a plain loop) —
    /// the pre-sorted-batch serve path, kept for comparison benches and
    /// equivalence tests.
    pub fn lookup_each_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        self.inner.lookup_each_into(keys, out)
    }

    /// Training loss of the wrapped index.
    pub fn loss(&self) -> f64 {
        self.inner.loss()
    }

    /// Estimated resident memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` iff no keys are indexed.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }
}

impl fmt::Debug for DynIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynIndex")
            .field("name", &self.name)
            .field("len", &self.inner.len())
            .field("loss", &self.inner.loss())
            .field("memory_bytes", &self.inner.memory_bytes())
            .finish()
    }
}

/// Constructor registered under a name. `Arc` (not `Box`) so implicit
/// `sharded:<inner>:<N>` composites can hand a `'static` clone of the
/// inner builder to the persistent pool's shard fan-out.
pub type IndexBuilder = Arc<dyn Fn(&KeySet) -> Result<DynIndex> + Send + Sync>;

struct RegistryEntry {
    description: String,
    builder: IndexBuilder,
}

/// String-keyed index construction: the bridge from CLI flags and
/// experiment configs to concrete structures.
///
/// [`IndexRegistry::with_defaults`] registers every structure in the
/// workspace under its canonical name; callers can add their own entries
/// (custom configs, new structures) with [`IndexRegistry::register`].
#[derive(Default)]
pub struct IndexRegistry {
    entries: BTreeMap<String, RegistryEntry>,
}

impl IndexRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// Registers `builder` under `name`, replacing any previous entry.
    pub fn register<F>(&mut self, name: &str, description: &str, builder: F)
    where
        F: Fn(&KeySet) -> Result<DynIndex> + Send + Sync + 'static,
    {
        self.entries.insert(
            name.to_string(),
            RegistryEntry {
                description: description.to_string(),
                builder: Arc::new(builder),
            },
        );
    }

    /// Builds the index registered under `name` over `ks`.
    ///
    /// Besides exact entries, names of the form `sharded:<inner>:<N>`
    /// resolve implicitly: the registered `<inner>` entry is built once per
    /// contiguous range shard and served through a
    /// [`ShardedIndex`](crate::shard::ShardedIndex) (shard builds fan out
    /// through [`crate::par`]). See [`crate::shard`].
    pub fn build(&self, name: &str, ks: &KeySet) -> Result<DynIndex> {
        (self.builder_for(name)?)(ks)
    }

    /// Resolves `name` to an owning constructor: exact entries clone their
    /// registered builder; `sharded:<inner>:<N>` names compose the inner
    /// builder (resolved recursively, so sharding nests) into a
    /// [`ShardedIndex`](crate::shard::ShardedIndex) constructor. The result
    /// is `'static`, which is what the persistent pool's shard fan-out
    /// requires of build closures.
    fn builder_for(&self, name: &str) -> Result<IndexBuilder> {
        if let Some(entry) = self.entries.get(name) {
            return Ok(Arc::clone(&entry.builder));
        }
        if let Some((inner, shards)) = crate::shard::parse_sharded_name(name) {
            let inner_builder = self.builder_for(inner)?;
            let full_name = name.to_string();
            return Ok(Arc::new(move |ks: &KeySet| {
                let build = Arc::clone(&inner_builder);
                let sharded =
                    crate::shard::ShardedIndex::build_with(ks, shards, 0, move |part| build(part))?;
                Ok(DynIndex::new(&full_name, sharded))
            }));
        }
        Err(LisError::UnknownIndex {
            name: name.to_string(),
            available: format!("{}, sharded:<name>:<N>", self.names().join(", ")),
        })
    }

    /// Whether `name` resolves through [`IndexRegistry::build`] — an exact
    /// entry or a `sharded:<inner>:<N>` composite over one.
    pub fn resolves(&self, name: &str) -> bool {
        self.contains(name)
            || crate::shard::parse_sharded_name(name).is_some_and(|(inner, _)| self.resolves(inner))
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// The description of a registered entry.
    pub fn description(&self, name: &str) -> Option<&str> {
        self.entries.get(name).map(|e| e.description.as_str())
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The workspace's standard victim fleet.
    ///
    /// Size-dependent parameters (RMI fanout, hash slots) scale with the
    /// keyset so one registry serves every workload:
    ///
    /// | name          | structure                                       |
    /// |---------------|-------------------------------------------------|
    /// | `rmi`         | two-stage RMI, linear root, oracle routing      |
    /// | `rmi-root`    | two-stage RMI, root-predicted routing           |
    /// | `deep-rmi`    | three-stage RMI                                 |
    /// | `btree`       | bulk-loaded B+-tree, fanout 64                  |
    /// | `alex`        | updatable gapped-array index                    |
    /// | `pla`         | error-bounded PLA index, ε = 16                 |
    /// | `hash`        | learned hash table (CDF model as hash)          |
    /// | `hash-random` | classic hash table baseline                     |
    pub fn with_defaults() -> Self {
        use crate::alex::{AlexConfig, AlexIndex};
        use crate::btree::{BPlusTree, BTreeConfig};
        use crate::deep_rmi::{DeepRmi, DeepRmiConfig};
        use crate::hashindex::{HashIndex, HashIndexConfig, HashKind};
        use crate::pla::{PlaConfig, PlaIndex};
        use crate::rmi::{Rmi, RmiConfig, Routing};

        /// Second-stage model count for ~100 keys per model.
        fn leaves_for(ks: &KeySet) -> usize {
            (ks.len() / 100).clamp(1, ks.len())
        }

        let mut reg = Self::empty();
        reg.register("rmi", "two-stage RMI (linear root, oracle routing)", |ks| {
            let rmi = Rmi::build(ks, &RmiConfig::linear_root(leaves_for(ks)))?;
            Ok(DynIndex::new("rmi", rmi))
        });
        reg.register(
            "rmi-root",
            "two-stage RMI (linear root, root-predicted routing)",
            |ks| {
                let cfg = RmiConfig {
                    num_leaves: leaves_for(ks),
                    routing: Routing::Root,
                };
                Ok(DynIndex::new("rmi-root", Rmi::build(ks, &cfg)?))
            },
        );
        reg.register(
            "deep-rmi",
            "three-stage RMI (generalized hierarchy)",
            |ks| {
                let leaves = leaves_for(ks);
                let mid = (leaves / 10).max(2);
                let cfg = DeepRmiConfig::three_stage(mid, leaves.max(4));
                Ok(DynIndex::new("deep-rmi", DeepRmi::build(ks, &cfg)?))
            },
        );
        reg.register("btree", "bulk-loaded B+-tree baseline (fanout 64)", |ks| {
            Ok(DynIndex::new(
                "btree",
                BPlusTree::build(ks, BTreeConfig::default().fanout)?,
            ))
        });
        reg.register("alex", "updatable adaptive index (gapped arrays)", |ks| {
            Ok(DynIndex::new(
                "alex",
                AlexIndex::build(ks, AlexConfig::default())?,
            ))
        });
        reg.register(
            "pla",
            "error-bounded piecewise-linear index (eps = 16)",
            |ks| {
                Ok(DynIndex::new(
                    "pla",
                    PlaIndex::build(ks, PlaConfig::default().epsilon)?,
                ))
            },
        );
        reg.register(
            "hash",
            "learned hash table (CDF model as hash function)",
            |ks| {
                let cfg = HashIndexConfig::default();
                Ok(DynIndex::new(
                    "hash",
                    <HashIndex as LearnedIndex>::build(ks, &cfg)?,
                ))
            },
        );
        reg.register(
            "hash-random",
            "classic hash table baseline (SplitMix64)",
            |ks| {
                let cfg = HashIndexConfig {
                    kind: HashKind::Random,
                    ..Default::default()
                };
                Ok(DynIndex::new(
                    "hash-random",
                    <HashIndex as LearnedIndex>::build(ks, &cfg)?,
                ))
            },
        );
        reg
    }
}

impl fmt::Debug for IndexRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyset(n: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * 7 + 3).collect()).unwrap()
    }

    #[test]
    fn probe_order_matches_a_comparison_sort_on_every_shape() {
        // The bucket-scatter path must produce *exactly* the total
        // (key, slot) order of `sort_unstable` — the serve sweep's
        // bit-identity across batch sizes depends on it. Exercise both
        // regimes (below and above RADIX_SORT_MIN), the pre-sorted
        // short-circuit, duplicates, heavy skew (all probes in one
        // bucket), and the all-zero degenerate.
        let shapes: Vec<Vec<Key>> = vec![
            vec![],
            vec![42],
            (0..100u64).rev().collect(),
            (0..100u64).collect(),
            (0..(RADIX_SORT_MIN as u64 * 4))
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            (0..(RADIX_SORT_MIN as u64 * 4)).map(|i| i % 17).collect(),
            (0..(RADIX_SORT_MIN as u64 * 2))
                .map(|i| u64::MAX - (i % 31))
                .collect(),
            vec![0; RADIX_SORT_MIN * 2],
        ];
        for keys in &shapes {
            let mut expected: Vec<(Key, usize)> = keys.iter().copied().zip(0..).collect();
            expected.sort_unstable();
            let mut order = Vec::new();
            build_probe_order(keys, &mut order);
            assert_eq!(order, expected, "shape of len {}", keys.len());
        }
    }

    #[test]
    fn lookup_constructors() {
        let p = Lookup::position(Some(4), 2);
        assert!(p.found);
        let miss = Lookup::position(None, 5);
        assert!(!miss.found);
        let m = Lookup::membership(true, 1);
        assert_eq!(m.pos, None);
        assert!(m.found);
    }

    #[test]
    fn defaults_cover_all_structures() {
        let reg = IndexRegistry::with_defaults();
        let names = reg.names();
        for expected in [
            "rmi",
            "rmi-root",
            "deep-rmi",
            "btree",
            "alex",
            "pla",
            "hash",
            "hash-random",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
            assert!(reg.description(expected).is_some());
        }
    }

    #[test]
    fn every_default_index_answers_membership() {
        let ks = keyset(600);
        let reg = IndexRegistry::with_defaults();
        for name in reg.names() {
            let idx = reg.build(name, &ks).unwrap();
            assert_eq!(idx.len(), ks.len(), "{name}");
            assert_eq!(idx.name(), name);
            for &k in ks.keys().iter().step_by(41) {
                let hit = idx.lookup(k);
                assert!(hit.found, "{name} lost key {k}");
                if let Some(pos) = hit.pos {
                    assert_eq!(ks.keys()[pos], k, "{name} position wrong");
                }
            }
            assert!(!idx.lookup(1).found, "{name} invented key 1");
            assert!(idx.memory_bytes() > 0, "{name} reports zero memory");
        }
    }

    #[test]
    fn lookup_batch_matches_single_lookups() {
        let ks = keyset(400);
        let reg = IndexRegistry::with_defaults();
        let probes: Vec<Key> = ks
            .keys()
            .iter()
            .step_by(7)
            .copied()
            .chain([1, 2, 10_000])
            .collect();
        for name in reg.names() {
            let idx = reg.build(name, &ks).unwrap();
            let batch = idx.lookup_batch(&probes);
            assert_eq!(batch.len(), probes.len());
            for (&k, &b) in probes.iter().zip(&batch) {
                assert_eq!(b, idx.lookup(k), "{name} key {k}");
            }
        }
    }

    #[test]
    fn lookup_batch_into_reuses_buffer_and_matches_all_paths() {
        let ks = keyset(500);
        let reg = IndexRegistry::with_defaults();
        let probes: Vec<Key> = ks
            .keys()
            .iter()
            .step_by(11)
            .copied()
            .chain([1, 2, 10_000])
            .collect();
        let mut out = Vec::new();
        let mut each = Vec::new();
        for name in reg.names() {
            let idx = reg.build(name, &ks).unwrap();
            idx.lookup_batch_into(&probes, &mut out);
            idx.lookup_each_into(&probes, &mut each);
            assert_eq!(out, each, "{name}: batch vs per-key path");
            assert_eq!(out, idx.lookup_batch(&probes), "{name}: wrapper");
            // A dirty reused buffer must be cleared, not appended to.
            idx.lookup_batch_into(&probes[..5], &mut out);
            assert_eq!(out.len(), 5, "{name}: buffer not cleared");
        }
    }

    #[test]
    fn sorted_batch_matches_per_key_at_every_batch_shape() {
        // The sorted sweep must agree with per-key lookups on
        // found/rank/cost for a full batch, a batch of 1 and an empty
        // batch, each written through a dirty, wrong-length buffer.
        let ks = keyset(700);
        let reg = IndexRegistry::with_defaults();
        let probes: Vec<Key> = ks
            .keys()
            .iter()
            .step_by(5)
            .copied()
            .chain([1, 9, 10_000])
            .collect();
        let dirty = || vec![Lookup::membership(true, 77); 3];
        for name in ["rmi", "rmi-root", "deep-rmi", "pla"] {
            let idx = reg.build(name, &ks).unwrap();
            let mut reference = Vec::new();
            idx.lookup_each_into(&probes, &mut reference);
            let mut out = dirty();
            idx.lookup_batch_into(&probes, &mut out);
            assert_eq!(out, reference, "{name} full batch");
            let mut out = dirty();
            idx.lookup_batch_into(&probes[..1], &mut out);
            assert_eq!(out, reference[..1], "{name} batch-of-1");
            let mut out = dirty();
            idx.lookup_batch_into(&[], &mut out);
            assert!(out.is_empty(), "{name} empty batch");
        }
    }

    #[test]
    fn unknown_index_is_a_helpful_error() {
        let reg = IndexRegistry::with_defaults();
        let err = reg.build("skiplist", &keyset(10)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("skiplist") && msg.contains("btree"), "{msg}");
    }

    #[test]
    fn resolves_covers_exact_and_sharded_names() {
        let reg = IndexRegistry::with_defaults();
        assert!(reg.resolves("rmi"));
        assert!(reg.resolves("sharded:rmi:8"));
        assert!(reg.resolves("sharded:sharded:btree:2:4"));
        assert!(!reg.resolves("skiplist"));
        assert!(!reg.resolves("sharded:skiplist:8"));
        assert!(!reg.resolves("sharded:rmi:0"));
        assert!(!reg.resolves("sharded:rmi"));
    }

    #[test]
    fn custom_registration_overrides() {
        use crate::btree::BPlusTree;
        let mut reg = IndexRegistry::empty();
        reg.register("btree", "tiny fanout", |ks| {
            Ok(DynIndex::new("btree", BPlusTree::build(ks, 4)?))
        });
        assert_eq!(reg.len(), 1);
        let idx = reg.build("btree", &keyset(100)).unwrap();
        assert!(idx.lookup(3).found);
    }
}
