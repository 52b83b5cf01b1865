//! The two-stage Recursive Model Index (Section III-A, Figure 1).
//!
//! The architecture that Kraska et al. showed to outperform B-Trees — and
//! the one the paper attacks — is a two-stage tree: a linear *root* model
//! approximating the coarse shape of the CDF, and `N` second-stage linear
//! regressions, each the "expert" for one of `N` contiguous, equal-size
//! partitions of the keyset.
//!
//! Two routing modes are provided:
//!
//! * [`Routing::Root`] — Kraska-style: the root's predicted rank selects the
//!   leaf (`leaf = ⌊N·pred/n⌋`). Mis-routing is possible and handled by the
//!   neighbour-leaf fallback during lookup.
//! * [`Routing::Oracle`] — the paper's attack assumption ("the NN model will
//!   always point to the correct (albeit poisoned) second-stage model",
//!   Section V): leaves are selected by binary search on partition
//!   boundaries, so routing is exact by construction.
//!
//! Under oracle routing the root never selects a leaf, and the equal-rank
//! partition the attack reasons about does not depend on it, so a linear
//! root is the only root family built.

use crate::error::{LisError, Result};
use crate::index::{LearnedIndex, Lookup};
use crate::keys::{Key, KeySet};
use crate::linreg::{fit_sorted_slice, LinearModel};
use crate::par;
use crate::scratch::ScratchPool;
use crate::search::bounded_search_with_fallback;
use crate::stats::{midpoint_shift, CdfMoments};
use std::sync::Arc;

/// Leaf selection strategy at query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Select the leaf from the root model's prediction.
    Root,
    /// Select the leaf by binary search on partition boundaries (exact).
    Oracle,
}

/// Configuration for [`Rmi::build`].
#[derive(Debug, Clone)]
pub struct RmiConfig {
    /// Number of second-stage models `N` (the fanout).
    pub num_leaves: usize,
    /// Query-time leaf selection.
    pub routing: Routing,
}

impl RmiConfig {
    /// The paper's victim: `N` leaves under oracle routing.
    pub fn linear_root(num_leaves: usize) -> Self {
        Self {
            num_leaves,
            routing: Routing::Oracle,
        }
    }
}

/// One second-stage model: a linear regression over a contiguous key
/// partition, together with the partition's global-rank offset and its
/// maximum training error (the last-mile search radius).
///
/// This is the *inspection view* of a leaf — attacks and tests reason
/// about whole leaves. The index itself stores leaves flattened into
/// parallel arrays (see `LeafTable`) so the lookup hot path streams
/// through contiguous slope/intercept/offset/error memory instead of
/// chasing struct padding.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf {
    /// The fitted regression (on *local* ranks `1..=len`).
    pub model: LinearModel,
    /// Global 0-based index of the partition's first key.
    pub start: usize,
    /// Number of keys in the partition.
    pub len: usize,
    /// Maximum absolute training error of the model (ceil), in positions.
    pub max_err: usize,
}

impl Leaf {
    /// Predicted global 0-based position for `key`.
    pub fn predict_global_pos(&self, key: Key, total: usize) -> usize {
        let local = self.model.predict(key) - 1.0; // 0-based local position
        let global = local + self.start as f64;
        global.round().clamp(0.0, (total - 1) as f64) as usize
    }
}

/// Structure-of-arrays leaf storage: the `i`-th leaf is
/// `(slope[i], intercept[i], start[i], len[i], max_err[i], mse[i])`.
/// The lookup hot path touches `slope`/`intercept`/`start`/`max_err`
/// only — four dense arrays instead of a pointer-width-padded
/// struct-per-leaf — which is what makes monotone sorted-batch sweeps
/// cache-resident.
#[derive(Debug, Clone, Default)]
struct LeafTable {
    slope: Vec<f64>,
    intercept: Vec<f64>,
    start: Vec<usize>,
    len: Vec<usize>,
    max_err: Vec<usize>,
    mse: Vec<f64>,
}

impl LeafTable {
    fn push(&mut self, model: &LinearModel, start: usize, len: usize, max_err: usize) {
        self.slope.push(model.w);
        self.intercept.push(model.b);
        self.start.push(start);
        self.len.push(len);
        self.max_err.push(max_err);
        self.mse.push(model.mse);
    }

    fn len(&self) -> usize {
        self.start.len()
    }

    fn view(&self, i: usize) -> Leaf {
        Leaf {
            model: LinearModel {
                w: self.slope[i],
                b: self.intercept[i],
                mse: self.mse[i],
                n: self.len[i],
            },
            start: self.start[i],
            len: self.len[i],
            max_err: self.max_err[i],
        }
    }

    fn memory_bytes(&self) -> usize {
        self.len() * (3 * std::mem::size_of::<f64>() + 3 * std::mem::size_of::<usize>())
    }
}

/// A trained two-stage recursive model index.
#[derive(Debug, Clone)]
pub struct Rmi {
    root: LinearModel,
    table: LeafTable,
    /// First key of each partition, for oracle routing.
    boundaries: Vec<Key>,
    /// The keyset's own array, shared ([`KeySet::shared_keys`]).
    keys: Arc<Vec<Key>>,
    routing: Routing,
    /// Pooled `(key, slot)` permutation buffers for the sorted-batch path.
    scratch: ScratchPool<Vec<(Key, usize)>>,
}

impl Rmi {
    /// Builds the index over `ks` according to `cfg`, fanning leaf
    /// training out across the machine's available parallelism.
    ///
    /// Partitioning follows the paper: `N` contiguous partitions of
    /// (near-)equal size in rank order.
    pub fn build(ks: &KeySet, cfg: &RmiConfig) -> Result<Self> {
        Self::build_with_threads(ks, cfg, 0)
    }

    /// [`Rmi::build`] with an explicit worker cap (`0` = available
    /// parallelism, `1` = fully serial). The output is **identical for
    /// every thread count**: leaves are fitted independently over
    /// zero-copy partition slices ([`fit_sorted_slice`]), each leaf's
    /// computation is sequential, and assembly runs in leaf order — the
    /// worker count only decides which thread fits which contiguous run
    /// of leaves (`tests/property_buildpath.rs` pins this exactly).
    ///
    /// The linear root is not refitted over the keys at all: the leaf fits
    /// already produced every partition's [`CdfMoments`], and the global
    /// regression's moments are their rebased sum
    /// ([`CdfMoments::rebase`]/[`CdfMoments::merge`]) — `O(N)` instead of
    /// an `O(n)` second pass.
    pub fn build_with_threads(ks: &KeySet, cfg: &RmiConfig, threads: usize) -> Result<Self> {
        if cfg.num_leaves == 0 {
            return Err(LisError::InvalidRmiConfig("num_leaves must be > 0".into()));
        }
        if cfg.num_leaves > ks.len() {
            return Err(LisError::InvalidRmiConfig(format!(
                "num_leaves {} exceeds key count {}",
                cfg.num_leaves,
                ks.len()
            )));
        }
        // The fan-out's captures are `Arc`-shared (the persistent pool's
        // workers are `'static`): the keyset's own array, and the bounds.
        let bounds = Arc::new(ks.partition_bounds(cfg.num_leaves)?);
        let keys = ks.shared_keys();

        struct FittedLeaf {
            model: LinearModel,
            max_err: usize,
            moments: CdfMoments,
        }
        let workers = par::effective_workers(threads, bounds.len());
        let fitted: Vec<FittedLeaf> = {
            let keys = Arc::clone(&keys);
            let bounds = Arc::clone(&bounds);
            par::map_chunks(bounds.len(), workers, move |range| {
                range
                    .map(|i| {
                        let slice = &keys[bounds[i].clone()];
                        let (model, moments) =
                            fit_sorted_slice(slice).expect("partitions are non-empty");
                        let max_err = model.max_abs_error_slice(slice).ceil() as usize;
                        FittedLeaf {
                            model,
                            max_err,
                            moments,
                        }
                    })
                    .collect()
            })
        };

        let mut table = LeafTable::default();
        let mut boundaries = Vec::with_capacity(bounds.len());
        for (bound, leaf) in bounds.iter().zip(&fitted) {
            boundaries.push(keys[bound.start]);
            table.push(&leaf.model, bound.start, bound.len(), leaf.max_err);
        }

        let shift = midpoint_shift(ks.min_key(), ks.max_key());
        let mut acc: Option<CdfMoments> = None;
        for (bound, leaf) in bounds.iter().zip(&fitted) {
            let lifted = leaf.moments.rebase(shift, bound.start);
            acc = Some(match acc {
                None => lifted,
                Some(m) => m.merge(&lifted),
            });
        }
        let root = LinearModel::from_moments(&acc.expect("num_leaves > 0 was validated"));

        Ok(Self {
            root,
            table,
            boundaries,
            keys,
            routing: cfg.routing,
            scratch: ScratchPool::new(),
        })
    }

    /// The pre-optimization build path — partition copies, per-leaf
    /// [`KeySet`] fits, a dedicated root training pass — kept callable as
    /// the reference `tests/property_buildpath.rs` pins the optimized
    /// plane against (the build-plane analogue of
    /// `lookup_each_into`). Leaf tables, boundaries, and lookups are
    /// identical to [`Rmi::build`]; only the linear root's `w`/`b` may
    /// differ in final ulps (direct fit vs. rebased-moment assembly).
    pub fn build_reference(ks: &KeySet, cfg: &RmiConfig) -> Result<Self> {
        if cfg.num_leaves == 0 {
            return Err(LisError::InvalidRmiConfig("num_leaves must be > 0".into()));
        }
        if cfg.num_leaves > ks.len() {
            return Err(LisError::InvalidRmiConfig(format!(
                "num_leaves {} exceeds key count {}",
                cfg.num_leaves,
                ks.len()
            )));
        }
        let partitions = ks.partition(cfg.num_leaves)?;

        let root = LinearModel::fit(ks)?;

        let mut table = LeafTable::default();
        let mut boundaries = Vec::with_capacity(partitions.len());
        let mut start = 0usize;
        for part in &partitions {
            let model = fit_leaf(part)?;
            let max_err = model.max_abs_error(part).ceil() as usize;
            boundaries.push(part.min_key());
            table.push(&model, start, part.len(), max_err);
            start += part.len();
        }

        Ok(Self {
            root,
            table,
            boundaries,
            keys: ks.shared_keys(),
            routing: cfg.routing,
            scratch: ScratchPool::new(),
        })
    }

    /// Number of second-stage models.
    pub fn num_leaves(&self) -> usize {
        self.table.len()
    }

    /// Total number of indexed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` iff no keys are indexed (unreachable for built indexes).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The second-stage models, materialized from the flat leaf table
    /// (inspection/attack path — the hot path reads the table directly).
    pub fn leaves(&self) -> Vec<Leaf> {
        (0..self.table.len()).map(|i| self.table.view(i)).collect()
    }

    /// The trained linear root model.
    pub fn root(&self) -> &LinearModel {
        &self.root
    }

    /// Index of the leaf that would serve `key` under the configured
    /// routing.
    pub fn route(&self, key: Key) -> usize {
        match self.routing {
            Routing::Oracle => self.route_oracle(key),
            Routing::Root => self.route_by_root(key),
        }
    }

    fn route_oracle(&self, key: Key) -> usize {
        match self.boundaries.binary_search(&key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    fn route_by_root(&self, key: Key) -> usize {
        scale_to_width(self.root.predict(key), self.keys.len(), self.table.len())
    }

    /// Predicted global 0-based position of `key` served by `leaf`.
    fn predict_at_leaf(&self, leaf: usize, key: Key) -> usize {
        // Inlined `Leaf::predict_global_pos` over the flat table: local
        // prediction, shifted by the partition offset, rounded and clamped.
        let local = self.table.slope[leaf] * key as f64 + self.table.intercept[leaf] - 1.0;
        let global = local + self.table.start[leaf] as f64;
        global.round().clamp(0.0, (self.keys.len() - 1) as f64) as usize
    }

    /// Predicted global 0-based position of `key`.
    pub fn predict_pos(&self, key: Key) -> usize {
        self.predict_at_leaf(self.route(key), key)
    }

    /// Lookup served by a known leaf: predict, then error-bounded
    /// last-mile search with the leaf's stored `max_err` as the window
    /// radius (+1 for prediction rounding). Member keys served by their
    /// training leaf are found inside the window by construction; absent
    /// keys and root-routing mispredicts fall back to galloping only when
    /// the miss lands out of bound.
    fn lookup_at_leaf(&self, leaf: usize, key: Key) -> Lookup {
        let guess = self.predict_at_leaf(leaf, key);
        let radius = self.table.max_err[leaf] + 1;
        bounded_search_with_fallback(&self.keys, key, guess, radius).into()
    }

    /// Full lookup: route, predict, error-bounded last-mile search.
    /// Returns the key's global position and the comparison count.
    pub fn lookup(&self, key: Key) -> Lookup {
        self.lookup_at_leaf(self.route(key), key)
    }

    /// Sorted-batch lookup into a reused buffer: probes are sorted (with
    /// their original slots), swept in key order — so oracle routing
    /// advances monotonically through the boundary array and the last-mile
    /// searches walk the key array left to right — and results land back
    /// in probe order. Each probe is served by [`Rmi::lookup`]'s own
    /// last-mile step, so per-probe results (`found`, position, cost) are
    /// identical to it by construction; only locality changes.
    pub fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        let mut leaf = 0usize;
        crate::index::sorted_batch_into(&self.scratch, keys, out, |k| {
            leaf = match self.routing {
                // Monotone routing: identical to `route_oracle` (last
                // boundary ≤ key), galloping forward from the cursor — a
                // probe or two when batches are dense, O(log gap) when
                // they are sparse.
                Routing::Oracle => {
                    crate::search::monotone_route_by(&self.boundaries, leaf, k, |&b| b)
                }
                Routing::Root => self.route_by_root(k),
            };
            self.lookup_at_leaf(leaf, k)
        });
    }

    /// Mean squared error of leaf `i` on its training partition (the
    /// quantity whose poisoned/clean ratio Figure 6 plots per model).
    pub fn leaf_losses(&self) -> Vec<f64> {
        self.table.mse.clone()
    }

    /// The RMI loss `L_RMI = (1/N)·Σ L_i` (Section V).
    pub fn rmi_loss(&self) -> f64 {
        if self.table.len() == 0 {
            return 0.0;
        }
        self.table.mse.iter().sum::<f64>() / self.table.len() as f64
    }

    /// Largest last-mile search radius across leaves.
    pub fn max_leaf_error(&self) -> usize {
        self.table.max_err.iter().copied().max().unwrap_or(0)
    }

    /// The sorted key array backing the index.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }
}

/// Scales a (1-based, fractional) rank prediction over `n` keys to a model
/// index in a stage of `width ≥ 1` models: `⌊width·(pred − 1)/n⌋`, with
/// the fraction clamped to `[0, 1)` *and* the resulting index clamped to
/// `width − 1`. The index clamp matters: for astronomically wide stages
/// `(1 − ε)·width` can round up to `width` in `f64`, and a pathological
/// root predicting far beyond `n` must still route to the last model, not
/// one past it.
pub(crate) fn scale_to_width(pred: f64, n: usize, width: usize) -> usize {
    let frac = ((pred - 1.0) / n as f64).clamp(0.0, 1.0 - f64::EPSILON);
    ((frac * width as f64) as usize).min(width - 1)
}

impl LearnedIndex for Rmi {
    type Config = RmiConfig;

    fn build(ks: &KeySet, cfg: &Self::Config) -> Result<Self> {
        Rmi::build(ks, cfg)
    }

    fn lookup(&self, key: Key) -> Lookup {
        Rmi::lookup(self, key)
    }

    fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        Rmi::lookup_batch_into(self, keys, out)
    }

    fn loss(&self) -> f64 {
        self.rmi_loss()
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.keys.len() * std::mem::size_of::<Key>()
            + self.boundaries.len() * std::mem::size_of::<Key>()
            + self.table.memory_bytes()
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Fits a leaf regression on a partition, tolerating single-key partitions
/// (constant model with zero loss): tiny tail partitions are legal when
/// `n mod N ≠ 0`.
fn fit_leaf(part: &KeySet) -> Result<LinearModel> {
    if part.len() == 1 {
        return Ok(LinearModel {
            w: 0.0,
            b: 1.0,
            mse: 0.0,
            n: 1,
        });
    }
    LinearModel::fit(part)
}

/// Computes the RMI loss of a *hypothetical* keyset under a given partition
/// count without building routing structures — used heavily by the attack's
/// inner loop.
pub fn rmi_loss_of(ks: &KeySet, num_leaves: usize) -> Result<f64> {
    let partitions = ks.partition(num_leaves)?;
    let mut total = 0.0;
    for p in &partitions {
        total += if p.len() < 2 {
            0.0
        } else {
            LinearModel::fit(p)?.mse
        };
    }
    Ok(total / num_leaves as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_keys(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step + 1).collect()).unwrap()
    }

    #[test]
    fn build_validates_config() {
        let ks = uniform_keys(100, 3);
        assert!(Rmi::build(&ks, &RmiConfig::linear_root(0)).is_err());
        assert!(Rmi::build(&ks, &RmiConfig::linear_root(101)).is_err());
    }

    #[test]
    fn oracle_routing_is_exact() {
        let ks = uniform_keys(1000, 5);
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(10)).unwrap();
        let leaves = rmi.leaves();
        for (i, &k) in ks.keys().iter().enumerate() {
            let l = &leaves[rmi.route(k)];
            assert!(
                i >= l.start && i < l.start + l.len,
                "key {k} routed to wrong leaf"
            );
        }
    }

    #[test]
    fn all_keys_found_oracle() {
        let ks = uniform_keys(500, 7);
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(25)).unwrap();
        for (i, &k) in ks.keys().iter().enumerate() {
            let res = rmi.lookup(k);
            assert_eq!(res.pos, Some(i));
        }
    }

    #[test]
    fn all_keys_found_root_routing() {
        let skewed = KeySet::from_keys((1..500u64).map(|i| i * i).collect()).unwrap();
        for ks in [uniform_keys(500, 7), skewed] {
            let cfg = RmiConfig {
                num_leaves: 25,
                routing: Routing::Root,
            };
            let rmi = Rmi::build(&ks, &cfg).unwrap();
            for (i, &k) in ks.keys().iter().enumerate() {
                let res = rmi.lookup(k);
                assert_eq!(res.pos, Some(i), "key {k}");
            }
        }
    }

    #[test]
    fn absent_keys_not_found() {
        let ks = uniform_keys(100, 10); // keys 1, 11, 21, ...
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(5)).unwrap();
        for k in [0u64, 2, 55, 992, 10_000] {
            assert_eq!(rmi.lookup(k).pos, None, "key {k}");
        }
    }

    #[test]
    fn rmi_loss_is_mean_of_leaf_losses() {
        let ks = uniform_keys(400, 3);
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(8)).unwrap();
        let mean = rmi.leaf_losses().iter().sum::<f64>() / 8.0;
        assert!((rmi.rmi_loss() - mean).abs() < 1e-12);
    }

    #[test]
    fn linear_data_has_near_zero_loss() {
        let ks = uniform_keys(1000, 4);
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(10)).unwrap();
        assert!(rmi.rmi_loss() < 1e-9);
        assert_eq!(rmi.max_leaf_error(), 0);
    }

    #[test]
    fn skewed_data_has_positive_loss() {
        let ks = KeySet::from_keys((1..1000u64).map(|i| i * i).collect()).unwrap();
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(10)).unwrap();
        assert!(rmi.rmi_loss() > 0.0);
    }

    #[test]
    fn more_leaves_reduce_loss_on_skewed_data() {
        let ks = KeySet::from_keys((1..2000u64).map(|i| i * i).collect()).unwrap();
        let coarse = Rmi::build(&ks, &RmiConfig::linear_root(4))
            .unwrap()
            .rmi_loss();
        let fine = Rmi::build(&ks, &RmiConfig::linear_root(64))
            .unwrap()
            .rmi_loss();
        assert!(fine < coarse, "fine {} vs coarse {}", fine, coarse);
    }

    #[test]
    fn rmi_loss_of_matches_built_index() {
        let ks = KeySet::from_keys((1..800u64).map(|i| i * i / 2 + i).collect()).unwrap();
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(8)).unwrap();
        let direct = rmi_loss_of(&ks, 8).unwrap();
        assert!((rmi.rmi_loss() - direct).abs() < 1e-9);
    }

    #[test]
    fn single_key_partitions_are_tolerated() {
        let ks = uniform_keys(7, 10);
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(7)).unwrap();
        assert_eq!(rmi.num_leaves(), 7);
        for (i, &k) in ks.keys().iter().enumerate() {
            assert_eq!(rmi.lookup(k).pos, Some(i));
        }
    }

    #[test]
    fn leaves_view_round_trips_the_flat_table() {
        let ks = KeySet::from_keys((1..900u64).map(|i| i * i / 5 + i).collect()).unwrap();
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(9)).unwrap();
        let leaves = rmi.leaves();
        assert_eq!(leaves.len(), 9);
        let mut start = 0usize;
        for (i, l) in leaves.iter().enumerate() {
            assert_eq!(l.start, start, "leaf {i} offset");
            start += l.len;
            // View predictions must equal the hot-path predictions.
            let mid_key = ks.keys()[l.start + l.len / 2];
            assert_eq!(
                l.predict_global_pos(mid_key, ks.len()),
                rmi.predict_at_leaf(i, mid_key)
            );
            assert_eq!(l.model.mse, rmi.leaf_losses()[i]);
        }
        assert_eq!(start, ks.len());
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        for routing in [Routing::Oracle, Routing::Root] {
            let ks = KeySet::from_keys((1..3000u64).map(|i| i * i / 5 + i).collect()).unwrap();
            let cfg = RmiConfig {
                num_leaves: 37,
                routing,
            };
            let serial = Rmi::build_with_threads(&ks, &cfg, 1).unwrap();
            for threads in [2usize, 4, 16] {
                let parallel = Rmi::build_with_threads(&ks, &cfg, threads).unwrap();
                assert_eq!(serial.leaves(), parallel.leaves(), "{threads} threads");
                assert_eq!(
                    serial.rmi_loss().to_bits(),
                    parallel.rmi_loss().to_bits(),
                    "{threads} threads"
                );
                assert_eq!(serial.boundaries, parallel.boundaries);
                let (a, b) = (serial.root(), parallel.root());
                assert_eq!(a.w.to_bits(), b.w.to_bits());
                assert_eq!(a.b.to_bits(), b.b.to_bits());
                for &k in ks.keys().iter().step_by(13) {
                    assert_eq!(serial.lookup(k), parallel.lookup(k), "key {k}");
                }
            }
        }
    }

    #[test]
    fn optimized_build_matches_reference_build() {
        // The zero-copy parallel plane must produce the same index as the
        // pre-optimization path: identical leaf tables (bitwise), losses,
        // and lookups; the derived linear root may differ only in ulps.
        let ks = KeySet::from_keys((1..4000u64).map(|i| i * i / 3 + 2 * i).collect()).unwrap();
        for leaves in [1usize, 7, 40] {
            let cfg = RmiConfig::linear_root(leaves);
            let optimized = Rmi::build(&ks, &cfg).unwrap();
            let reference = Rmi::build_reference(&ks, &cfg).unwrap();
            assert_eq!(optimized.leaves(), reference.leaves(), "{leaves} leaves");
            assert_eq!(
                optimized.rmi_loss().to_bits(),
                reference.rmi_loss().to_bits()
            );
            let (a, b) = (optimized.root(), reference.root());
            assert!(
                (a.w - b.w).abs() <= 1e-9 * b.w.abs().max(1.0),
                "{} vs {}",
                a.w,
                b.w
            );
            assert!(
                (a.b - b.b).abs() <= 1e-6 * b.b.abs().max(1.0),
                "{} vs {}",
                a.b,
                b.b
            );
            let mut probes: Vec<Key> = ks.keys().iter().step_by(11).copied().collect();
            probes.extend([0, 5, ks.max_key() + 9]);
            for k in probes {
                assert_eq!(optimized.lookup(k), reference.lookup(k), "key {k}");
            }
        }
    }

    #[test]
    fn sorted_batch_matches_single_lookup_exactly() {
        for routing in [Routing::Oracle, Routing::Root] {
            let ks = KeySet::from_keys((1..1200u64).map(|i| i * i / 3 + 2 * i).collect()).unwrap();
            let cfg = RmiConfig {
                num_leaves: 24,
                routing,
            };
            let rmi = Rmi::build(&ks, &cfg).unwrap();
            // Members (unsorted order), absents, duplicates, extremes.
            let mut probes: Vec<Key> = ks.keys().iter().rev().step_by(3).copied().collect();
            probes.extend([0, 1, 7, ks.max_key() + 1, Key::MAX]);
            probes.push(probes[0]);
            let mut out = Vec::new();
            rmi.lookup_batch_into(&probes, &mut out);
            assert_eq!(out.len(), probes.len());
            for (&k, &got) in probes.iter().zip(&out) {
                assert_eq!(got, rmi.lookup(k), "{routing:?} key {k}");
            }
            // The scratch buffer was returned to the pool for reuse.
            assert_eq!(rmi.scratch.idle(), 1);
            rmi.lookup_batch_into(&probes, &mut out);
            assert_eq!(rmi.scratch.idle(), 1);
        }
    }

    #[test]
    fn bounded_lookup_cost_tracks_leaf_error_radius() {
        // Clean near-linear data: tiny windows, tiny costs bounded by the
        // lane kernel's exact in-window cost of the error window — a
        // function of the window, not of n.
        let ks = uniform_keys(10_000, 7);
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(100)).unwrap();
        let radius = rmi.max_leaf_error() + 1;
        let bound = crate::search::lane_window_cost_bound(2 * radius + 1);
        for &k in ks.keys().iter().step_by(97) {
            let hit = rmi.lookup(k);
            assert!(hit.found);
            assert!(
                hit.cost <= bound,
                "member lookup cost {} exceeds window bound {bound}",
                hit.cost
            );
        }
    }

    #[test]
    fn route_by_root_clamps_pathological_predictions() {
        // A root fitted on quadratic data extrapolates wildly for extreme
        // query keys: predictions far beyond n (and far below 1) must
        // still route to a valid leaf and answer correctly.
        let ks = KeySet::from_keys((1..800u64).map(|i| i * i).collect()).unwrap();
        let cfg = RmiConfig {
            num_leaves: 16,
            routing: Routing::Root,
        };
        let rmi = Rmi::build(&ks, &cfg).unwrap();
        for k in [0u64, 1, ks.max_key(), ks.max_key() + 1, Key::MAX] {
            let leaf = rmi.route(k);
            assert!(leaf < rmi.num_leaves(), "key {k} routed to leaf {leaf}");
            let hit = rmi.lookup(k);
            assert_eq!(hit.found, ks.contains(k), "key {k}");
        }
    }

    #[test]
    fn scale_to_width_never_indexes_out_of_bounds() {
        // In-range predictions land proportionally.
        assert_eq!(scale_to_width(1.0, 100, 10), 0);
        assert_eq!(scale_to_width(51.0, 100, 10), 5);
        assert_eq!(scale_to_width(100.0, 100, 10), 9);
        // Out-of-range predictions clamp to the edge models.
        assert_eq!(scale_to_width(-1e18, 100, 10), 0);
        assert_eq!(scale_to_width(1e18, 100, 10), 9);
        assert_eq!(scale_to_width(f64::NAN, 100, 10), 0);
        // Pathologically wide stages: `(1 − ε)·width` rounds up to
        // `width` in f64 for widths beyond 2^52 — the explicit index
        // clamp keeps the result in bounds where the cast alone would
        // not.
        for width in [usize::MAX, 1 << 60, (1 << 53) + 1, 3, 2, 1] {
            for pred in [f64::INFINITY, 1e300, -1e300, 0.0, 1.5] {
                let i = scale_to_width(pred, 100, width);
                assert!(i < width, "pred {pred} width {width} gave {i}");
            }
        }
    }
}
