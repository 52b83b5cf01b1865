//! Sharded serving: a range-partitioned composite over any index structure.
//!
//! The paper's experiments build one monolithic structure per keyset; a
//! serving deployment at the paper's 10⁷-key scale instead splits the key
//! range into contiguous shards and serves each from its own structure —
//! the partitioned-learned-structure design ALEX popularized. A
//! [`ShardedIndex`] does exactly that over *any* victim in the workspace:
//! it partitions the keyset into `N` contiguous shards (via
//! [`KeySet::partition`]), builds an inner index per shard, and routes each
//! query through a fence-key binary search to the owning shard.
//!
//! Builds and batched lookups fan out across a scoped thread pool — every
//! structure in the workspace is `Send + Sync`, so shards can be built and
//! queried concurrently without copying the keyset.
//!
//! Sharded composites register *implicitly* in the
//! [`IndexRegistry`](crate::index::IndexRegistry): any name of the form
//! `sharded:<inner>:<N>` (e.g. `sharded:rmi:8`) resolves by building the
//! registered `<inner>` entry once per shard, so the whole experiment
//! harness — pipeline, CLI, benches, property tests — serves sharded
//! fleets with no new plumbing.
//!
//! ## Example
//!
//! ```
//! use lis_core::index::IndexRegistry;
//! use lis_core::keys::KeySet;
//!
//! let ks = KeySet::from_keys((0..2_000u64).map(|i| i * 3).collect()).unwrap();
//! let registry = IndexRegistry::with_defaults();
//! let sharded = registry.build("sharded:rmi:8", &ks).unwrap();
//! let plain = registry.build("rmi", &ks).unwrap();
//! let hit = sharded.lookup(ks.keys()[1_234]);
//! assert!(hit.found);
//! assert_eq!(hit.pos, plain.lookup(ks.keys()[1_234]).pos);
//! ```

use crate::error::{LisError, Result};
use crate::index::{DynIndex, LearnedIndex, Lookup};
use crate::keys::{Key, KeySet};
use crate::par;
use crate::scratch::ScratchPool;
use std::sync::{Arc, Mutex, PoisonError};

/// Batches at or below this many probes are served on the calling thread:
/// serving micro-batches (tens to ~thousands of keys) lose more to
/// spawning scoped threads than shard parallelism returns, and the serial
/// path reuses pooled scratch so steady-state serving allocates nothing.
/// Larger offline sweeps still fan out across the thread pool.
pub const PARALLEL_BATCH_THRESHOLD: usize = 4_096;

/// Parses a `sharded:<inner>:<N>` registry name into `(inner, N)`.
///
/// The inner name may itself contain colons (so `sharded:sharded:rmi:2:4`
/// nests), which is why the shard count is taken from the *last* segment.
/// Returns `None` for names without the prefix, an empty inner name, a
/// non-numeric count, or a count of zero.
pub fn parse_sharded_name(name: &str) -> Option<(&str, usize)> {
    let spec = name.strip_prefix("sharded:")?;
    let (inner, count) = spec.rsplit_once(':')?;
    let shards: usize = count.parse().ok()?;
    if inner.is_empty() || shards == 0 {
        return None;
    }
    Some((inner, shards))
}

/// Number of worker threads a sharded structure uses when the caller passes
/// `0` ("pick for me"): the machine's available parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A range-partitioned composite index: `N` contiguous shards of the
/// keyset, each served by its own inner structure, with fence-key routing.
///
/// Implements [`LearnedIndex`] itself, so a sharded fleet is
/// indistinguishable from a monolithic victim to every harness: positions
/// are re-based to the global sorted order, `loss` is the key-weighted mean
/// of the shard losses, and `memory_bytes` sums the shards plus the
/// routing tables.
pub struct ShardedIndex {
    /// `Arc`-shared so the pooled fan-out job can hold a `'static` view
    /// of the shard fleet (the persistent pool's workers cannot borrow).
    shards: Arc<Vec<DynIndex>>,
    /// Smallest key of each shard, strictly increasing — the routing fence.
    fences: Vec<Key>,
    /// Global position of each shard's first key.
    offsets: Vec<usize>,
    len: usize,
    loss: f64,
    threads: usize,
    /// Comparisons charged per query for the fence binary search.
    route_cost: usize,
    /// Pooled scatter/gather buffers for the batched fan-out.
    scratch: ScratchPool<ShardScratch>,
}

/// Per-batch scatter/gather working memory: for each shard, the probe
/// slots routed to it, the probe keys, and the shard's answers — plus
/// the shared fan-out job oversize batches run on the persistent pool.
/// Pooled in the owning [`ShardedIndex`] so steady-state batches reuse
/// warmed buffers instead of allocating per shard per batch.
struct ShardScratch {
    slots: Vec<Vec<usize>>,
    buckets: Vec<Vec<Key>>,
    results: Vec<Vec<Lookup>>,
    job: Arc<ShardFanJob>,
}

impl ShardScratch {
    fn new(shards: &Arc<Vec<DynIndex>>) -> Self {
        let n = shards.len();
        Self {
            slots: vec![Vec::new(); n],
            buckets: vec![Vec::new(); n],
            results: vec![Vec::new(); n],
            job: Arc::new(ShardFanJob {
                shards: Arc::clone(shards),
                lanes: (0..n).map(|_| Mutex::new(ShardLane::default())).collect(),
            }),
        }
    }

    /// Clears the per-shard buffers, keeping their capacity.
    fn reset(&mut self) {
        for v in &mut self.slots {
            v.clear();
        }
        for v in &mut self.buckets {
            v.clear();
        }
        // `results` vectors are refilled through `lookup_batch_into`,
        // which clears them itself.
    }
}

/// The pooled fan-out job of an oversize sharded batch: unit `s` serves
/// shard `s`'s bucket through the inner index's batched hot path. The
/// caller swaps each shard's scattered bucket (and answer buffer) into
/// lane `s` before the fan-out and back out after — two `O(1)` swaps per
/// shard — so the job itself is `'static` shared state the persistent
/// pool's workers can run, while the warmed path allocates nothing.
struct ShardFanJob {
    shards: Arc<Vec<DynIndex>>,
    lanes: Vec<Mutex<ShardLane>>,
}

#[derive(Default)]
struct ShardLane {
    bucket: Vec<Key>,
    result: Vec<Lookup>,
}

impl par::FanoutTask for ShardFanJob {
    fn run(&self, s: usize) {
        // Uncontended by construction (the fan-out hands every lane to
        // exactly one unit); recover from poison rather than mask the
        // panic that caused it — the fan-out is already propagating it.
        let mut lane = self.lanes[s].lock().unwrap_or_else(PoisonError::into_inner);
        let ShardLane { bucket, result } = &mut *lane;
        self.shards[s].lookup_batch_into(bucket, result);
    }
}

impl ShardedIndex {
    /// Builds `shards` contiguous range shards over `ks`, constructing each
    /// inner index with `build` (in parallel when `threads > 1`).
    ///
    /// `shards` is clamped to the keyset size; `threads == 0` selects the
    /// machine's available parallelism.
    pub fn build_with<F>(ks: &KeySet, shards: usize, threads: usize, build: F) -> Result<Self>
    where
        F: Fn(&KeySet) -> Result<DynIndex> + Send + Sync + 'static,
    {
        if shards == 0 {
            return Err(LisError::Invariant(
                "sharded index needs at least one shard".into(),
            ));
        }
        let shards = shards.min(ks.len());
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        // `Arc`-shared for the fan-out ('static captures), recovered
        // right after — the backend drops its clones before completing.
        let parts = Arc::new(ks.partition(shards)?);

        // At most `threads` workers, each building a contiguous run of
        // shards — never one thread per shard. Shares the build plane's
        // fan-out helper, so sharded builds and model training follow
        // one worker-cap discipline (and compose through the persistent
        // pool when one is installed: inner indexes training their own
        // leaves in parallel submit to the same fixed-width pool).
        let workers = threads.min(shards).max(1);
        let built: Vec<Result<DynIndex>> = {
            let parts = Arc::clone(&parts);
            crate::par::map_chunks(parts.len(), workers, move |range| {
                range.map(|i| build(&parts[i])).collect()
            })
        };
        let parts = Arc::try_unwrap(parts).expect("fan-out released the partitions");

        let mut inner = Vec::with_capacity(shards);
        let mut fences = Vec::with_capacity(shards);
        let mut offsets = Vec::with_capacity(shards);
        let mut len = 0usize;
        let mut loss_acc = 0.0f64;
        for (part, idx) in parts.iter().zip(built) {
            let idx = idx?;
            fences.push(part.min_key());
            offsets.push(len);
            len += idx.len();
            loss_acc += idx.loss() * idx.len() as f64;
            inner.push(idx);
        }
        // ceil(log2(shards + 1)) — comparisons of the fence binary search.
        let route_cost = usize::BITS as usize - shards.leading_zeros() as usize;
        Ok(Self {
            shards: Arc::new(inner),
            fences,
            offsets,
            len,
            loss: if len == 0 { 0.0 } else { loss_acc / len as f64 },
            threads,
            route_cost,
            scratch: ScratchPool::new(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard inner indexes, in key order.
    pub fn shards(&self) -> &[DynIndex] {
        &self.shards
    }

    /// Worker threads used by the batched fan-out
    /// ([`LearnedIndex::lookup_batch_into`]) for oversize batches.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Index of the shard owning `key` (keys below the first fence route to
    /// shard 0, where they correctly miss).
    fn route(&self, key: Key) -> usize {
        self.fences.partition_point(|&f| f <= key).saturating_sub(1)
    }

    fn lookup_one(&self, key: Key) -> Lookup {
        let s = self.route(key);
        self.globalize(s, self.shards[s].lookup(key))
    }

    /// Re-bases a shard-local result to the global view: global rank and
    /// the fence-routing comparisons on top of the shard's own cost.
    fn globalize(&self, shard: usize, mut hit: Lookup) -> Lookup {
        if let Some(pos) = hit.pos {
            hit.pos = Some(pos + self.offsets[shard]);
        }
        hit.cost += self.route_cost;
        hit
    }
}

// lis-analysis: allow(registry-complete) — ShardedIndex is not a fixed
// registry row: it is resolved dynamically from `sharded:<name>:<N>`
// specs, wrapping any registered inner structure.
impl LearnedIndex for ShardedIndex {
    fn lookup(&self, key: Key) -> Lookup {
        self.lookup_one(key)
    }

    /// Scatter-gather over the shards, preserving probe order: every probe
    /// is routed to its owning shard, each shard serves its bucket through
    /// the inner index's batched hot path (one virtual dispatch per shard,
    /// not per key). Scatter slots, buckets, and per-shard answers live in
    /// pooled scratch, so steady-state batches allocate nothing; batches
    /// larger than [`PARALLEL_BATCH_THRESHOLD`] fan out through
    /// [`par::fanout`] — the persistent worker pool when one is installed,
    /// scoped threads otherwise — while serving-sized micro-batches run on
    /// the calling thread.
    fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        out.clear();
        if keys.is_empty() {
            return;
        }
        if self.shards.len() == 1 {
            self.shards[0].lookup_batch_into(keys, out);
            for hit in out.iter_mut() {
                *hit = self.globalize(0, *hit);
            }
            return;
        }
        let mut scratch = self.scratch.acquire_or(|| ShardScratch::new(&self.shards));
        scratch.reset();
        let ShardScratch {
            slots,
            buckets,
            results,
            job,
        } = &mut scratch;
        for (i, &k) in keys.iter().enumerate() {
            let s = self.route(k);
            slots[s].push(i);
            buckets[s].push(k);
        }

        // At most `threads` fan-out lanes, each serving one shard bucket —
        // and none at all for micro-batches.
        let workers = if keys.len() > PARALLEL_BATCH_THRESHOLD {
            self.threads.min(self.shards.len()).max(1)
        } else {
            1
        };
        if workers <= 1 {
            for (s, (bucket, result)) in buckets.iter().zip(results.iter_mut()).enumerate() {
                self.shards[s].lookup_batch_into(bucket, result);
            }
        } else {
            // Move the scattered buckets (and answer buffers) into the
            // job's lanes, run one unit per shard, and move them back —
            // two O(1) swaps per shard, no copies, no allocation.
            for (lane, (bucket, result)) in job
                .lanes
                .iter()
                .zip(buckets.iter_mut().zip(results.iter_mut()))
            {
                let mut lane = lane.lock().unwrap_or_else(PoisonError::into_inner);
                std::mem::swap(&mut lane.bucket, bucket);
                std::mem::swap(&mut lane.result, result);
            }
            let task: Arc<dyn par::FanoutTask> = Arc::clone(job) as Arc<dyn par::FanoutTask>;
            par::fanout(&task, self.shards.len(), workers);
            drop(task);
            for (lane, (bucket, result)) in job
                .lanes
                .iter()
                .zip(buckets.iter_mut().zip(results.iter_mut()))
            {
                let mut lane = lane.lock().unwrap_or_else(PoisonError::into_inner);
                std::mem::swap(&mut lane.bucket, bucket);
                std::mem::swap(&mut lane.result, result);
            }
        }

        out.resize(keys.len(), Lookup::membership(false, 0));
        for (s, (shard_slots, shard_results)) in slots.iter().zip(results.iter()).enumerate() {
            for (&slot, &hit) in shard_slots.iter().zip(shard_results) {
                out[slot] = self.globalize(s, hit);
            }
        }
        self.scratch.release(scratch);
    }

    fn loss(&self) -> f64 {
        self.loss
    }

    fn memory_bytes(&self) -> usize {
        let routing = (self.fences.len() + self.offsets.len()) * std::mem::size_of::<usize>();
        self.shards
            .iter()
            .map(DynIndex::memory_bytes)
            .sum::<usize>()
            + routing
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("len", &self.len)
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexRegistry;

    fn keyset(n: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * 7 + 3).collect()).unwrap()
    }

    #[test]
    fn parse_sharded_names() {
        assert_eq!(parse_sharded_name("sharded:rmi:8"), Some(("rmi", 8)));
        assert_eq!(
            parse_sharded_name("sharded:hash-random:2"),
            Some(("hash-random", 2))
        );
        assert_eq!(
            parse_sharded_name("sharded:sharded:rmi:2:4"),
            Some(("sharded:rmi:2", 4))
        );
        assert_eq!(parse_sharded_name("rmi"), None);
        assert_eq!(parse_sharded_name("sharded:rmi"), None);
        assert_eq!(parse_sharded_name("sharded:rmi:0"), None);
        assert_eq!(parse_sharded_name("sharded::3"), None);
        assert_eq!(parse_sharded_name("sharded:rmi:eight"), None);
    }

    #[test]
    fn parse_sharded_name_rejects_zero_and_missing_counts() {
        // A zero shard count is not a parse, not a later build error.
        assert_eq!(parse_sharded_name("sharded:rmi:0"), None);
        assert_eq!(
            parse_sharded_name("sharded:sharded:rmi:0:4"),
            Some(("sharded:rmi:0", 4))
        );
        // Missing count in every spelling: no colon, trailing colon, bare
        // prefix.
        assert_eq!(parse_sharded_name("sharded:rmi"), None);
        assert_eq!(parse_sharded_name("sharded:rmi:"), None);
        assert_eq!(parse_sharded_name("sharded:"), None);
        assert_eq!(parse_sharded_name("sharded"), None);
        assert_eq!(parse_sharded_name(""), None);
    }

    #[test]
    fn parse_sharded_name_does_not_trim_whitespace() {
        // Whitespace around the count makes the count unparseable...
        assert_eq!(parse_sharded_name("sharded:rmi: 8"), None);
        assert_eq!(parse_sharded_name("sharded:rmi:8 "), None);
        // ...while whitespace in the inner name is preserved verbatim (the
        // registry, not the parser, decides such a name resolves nowhere).
        assert_eq!(parse_sharded_name("sharded: rmi:8"), Some((" rmi", 8)));
        assert!(!IndexRegistry::with_defaults().resolves("sharded: rmi:8"));
        assert_eq!(parse_sharded_name(" sharded:rmi:8"), None);
    }

    #[test]
    fn parse_sharded_name_nests_arbitrarily_deep() {
        assert_eq!(
            parse_sharded_name("sharded:sharded:sharded:btree:2:3:4"),
            Some(("sharded:sharded:btree:2:3", 4))
        );
        // Peeling layer by layer terminates at the innermost name.
        let mut name = "sharded:sharded:sharded:btree:2:3:4";
        let mut counts = Vec::new();
        while let Some((inner, n)) = parse_sharded_name(name) {
            counts.push(n);
            name = inner;
        }
        assert_eq!(name, "btree");
        assert_eq!(counts, vec![4, 3, 2]);
        assert!(IndexRegistry::with_defaults().resolves("sharded:sharded:sharded:btree:2:3:4"));
    }

    #[test]
    fn parse_sharded_name_handles_numeric_and_huge_counts() {
        // A numeric inner name parses; resolution is the registry's call.
        assert_eq!(parse_sharded_name("sharded:42:3"), Some(("42", 3)));
        // Counts beyond usize fail the parse rather than wrapping.
        assert_eq!(
            parse_sharded_name("sharded:rmi:99999999999999999999999999"),
            None
        );
        // `usize::from_str` tolerates a leading plus; minus and decimals
        // stay rejected.
        assert_eq!(parse_sharded_name("sharded:rmi:+8"), Some(("rmi", 8)));
        assert_eq!(parse_sharded_name("sharded:rmi:-8"), None);
        assert_eq!(parse_sharded_name("sharded:rmi:8.0"), None);
    }

    #[test]
    fn sharded_agrees_with_unsharded_on_every_probe() {
        let ks = keyset(1_000);
        let registry = IndexRegistry::with_defaults();
        let plain = registry.build("rmi", &ks).unwrap();
        let sharded = registry.build("sharded:rmi:8", &ks).unwrap();
        assert_eq!(sharded.len(), plain.len());

        let mut probes: Vec<Key> = ks.keys().to_vec();
        probes.extend([0, 1, 5_000, ks.max_key() + 1, Key::MAX]);
        for &k in &probes {
            let a = sharded.lookup(k);
            let b = plain.lookup(k);
            assert_eq!(a.found, b.found, "membership of {k}");
            assert_eq!(a.pos, b.pos, "position of {k}");
        }
    }

    #[test]
    fn batch_matches_single_lookups_across_chunking() {
        let ks = keyset(500);
        let sharded = ShardedIndex::build_with(&ks, 7, 4, |part| {
            IndexRegistry::with_defaults().build("btree", part)
        })
        .unwrap();
        // 4,000 probes stay below PARALLEL_BATCH_THRESHOLD (serial,
        // pooled-scratch path); 6,000 exceed it (scoped-thread fan-out).
        for n in [4_000u64, 6_000] {
            let probes: Vec<Key> = (0..n).map(|i| i * 2).collect();
            let batch = LearnedIndex::lookup_batch(&sharded, &probes);
            assert_eq!(batch.len(), probes.len());
            for (&k, &b) in probes.iter().zip(&batch) {
                assert_eq!(b, sharded.lookup_one(k), "probe {k}");
            }
        }
    }

    #[test]
    fn batch_scratch_is_pooled_and_reused() {
        let ks = keyset(600);
        let sharded = ShardedIndex::build_with(&ks, 5, 1, |part| {
            IndexRegistry::with_defaults().build("rmi", part)
        })
        .unwrap();
        assert_eq!(sharded.scratch.idle(), 0);
        let probes: Vec<Key> = ks.keys().iter().step_by(3).copied().collect();
        let mut out = Vec::new();
        LearnedIndex::lookup_batch_into(&sharded, &probes, &mut out);
        assert_eq!(sharded.scratch.idle(), 1);
        // A second batch reuses the pooled scratch rather than growing
        // the pool, and still answers identically.
        LearnedIndex::lookup_batch_into(&sharded, &probes, &mut out);
        assert_eq!(sharded.scratch.idle(), 1);
        for (&k, &b) in probes.iter().zip(&out) {
            assert_eq!(b, sharded.lookup_one(k), "probe {k}");
        }
    }

    #[test]
    fn shard_count_clamps_to_keyset_size() {
        let ks = keyset(5);
        let sharded = ShardedIndex::build_with(&ks, 64, 1, |part| {
            IndexRegistry::with_defaults().build("btree", part)
        })
        .unwrap();
        assert_eq!(sharded.shard_count(), 5);
        for &k in ks.keys() {
            assert!(sharded.lookup_one(k).found);
        }
    }

    #[test]
    fn zero_shards_is_an_invariant_error() {
        let err = ShardedIndex::build_with(&keyset(10), 0, 1, |part| {
            IndexRegistry::with_defaults().build("btree", part)
        });
        assert!(matches!(err, Err(LisError::Invariant(_))));
    }

    #[test]
    fn shard_build_errors_propagate() {
        let err = ShardedIndex::build_with(&keyset(10), 2, 2, |_| {
            Err(LisError::Invariant("boom".into()))
        });
        assert!(err.is_err());
    }

    #[test]
    fn loss_is_key_weighted_and_memory_sums_shards() {
        let ks = keyset(900);
        let sharded = ShardedIndex::build_with(&ks, 3, 0, |part| {
            IndexRegistry::with_defaults().build("rmi", part)
        })
        .unwrap();
        let per_shard: f64 = sharded
            .shards()
            .iter()
            .map(|s| s.loss() * s.len() as f64)
            .sum::<f64>()
            / ks.len() as f64;
        assert!((sharded.loss() - per_shard).abs() < 1e-12);
        let inner_mem: usize = sharded.shards().iter().map(DynIndex::memory_bytes).sum();
        assert!(sharded.memory_bytes() > inner_mem);
    }

    #[test]
    fn nested_sharding_resolves() {
        let ks = keyset(400);
        let registry = IndexRegistry::with_defaults();
        let nested = registry.build("sharded:sharded:btree:2:4", &ks).unwrap();
        assert_eq!(nested.len(), ks.len());
        let plain = registry.build("btree", &ks).unwrap();
        for &k in ks.keys().iter().step_by(17) {
            assert_eq!(nested.lookup(k).pos, plain.lookup(k).pos);
        }
    }
}
