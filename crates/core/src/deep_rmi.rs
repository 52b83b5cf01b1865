//! Multi-stage recursive model index (the general architecture of Kraska
//! et al., Figure 1 of the paper generalized beyond two stages).
//!
//! The paper attacks the two-stage instantiation because that is the one
//! shown to beat B-Trees, but the RMI definition allows any stage count:
//! stage `i` holds `M_i` models, and a key is routed top-down — each
//! stage's prediction (scaled to the next stage's width) picks the model
//! below. Training is the standard top-down pass: every model is trained
//! on exactly the keys that *routing* (not partitioning) sends to it,
//! which means upper-stage errors shape lower-stage training sets.
//!
//! This generalization matters for the attack analysis: deeper hierarchies
//! dilute a fixed poisoning budget across more (smaller) leaf models, but
//! leaf training sets are no longer contiguous equal-size partitions, so
//! the equal-partition attack bookkeeping (Algorithm 2) becomes an
//! approximation. The `deep_rmi` tests quantify the clean-index behaviour;
//! poisoning it end-to-end is future work mirrored from the paper's own.

use crate::error::{LisError, Result};
use crate::index::{LearnedIndex, Lookup};
use crate::keys::{Key, KeySet};
use crate::linreg::LinearModel;
use crate::par;
use crate::rmi::scale_to_width;
use crate::scratch::ScratchPool;
use crate::search::bounded_search_with_fallback;
use crate::stats::{midpoint_shift, CdfMoments};

/// Configuration: models per stage, root first. The root stage must have
/// exactly one model; the last stage's models are the leaves.
#[derive(Debug, Clone)]
pub struct DeepRmiConfig {
    /// Number of models per stage, e.g. `[1, 10, 100]`.
    pub stage_widths: Vec<usize>,
}

impl DeepRmiConfig {
    /// A two-stage config matching [`crate::rmi::Rmi`]'s shape.
    pub fn two_stage(leaves: usize) -> Self {
        Self {
            stage_widths: vec![1, leaves],
        }
    }

    /// A three-stage config with a geometric fanout.
    pub fn three_stage(mid: usize, leaves: usize) -> Self {
        Self {
            stage_widths: vec![1, mid, leaves],
        }
    }
}

/// One trained model plus the rank offset of its training subset.
#[derive(Debug, Clone)]
struct StageModel {
    /// `None` when no keys were routed here (empty models predict their
    /// routing centre).
    model: Option<LinearModel>,
    /// Fallback prediction for empty models.
    fallback: f64,
}

impl StageModel {
    fn predict(&self, key: Key) -> f64 {
        match &self.model {
            Some(m) => m.predict(key),
            None => self.fallback,
        }
    }
}

/// A trained multi-stage RMI.
#[derive(Debug, Clone)]
pub struct DeepRmi {
    stages: Vec<Vec<StageModel>>,
    /// The keyset's own array, shared ([`KeySet::shared_keys`]).
    keys: std::sync::Arc<Vec<Key>>,
    /// Per-leaf max training error (last-mile radius), leaf-indexed.
    leaf_errors: Vec<usize>,
    /// Pooled `(key, slot)` permutation buffers for the sorted-batch path.
    scratch: ScratchPool<Vec<(Key, usize)>>,
}

impl DeepRmi {
    /// Trains the hierarchy top-down over `ks`, fanning per-stage model
    /// fits and routing passes out across the machine's available
    /// parallelism.
    pub fn build(ks: &KeySet, cfg: &DeepRmiConfig) -> Result<Self> {
        Self::build_with_threads(ks, cfg, 0)
    }

    /// [`DeepRmi::build`] with an explicit worker cap (`0` = available
    /// parallelism, `1` = fully serial). Output is identical for every
    /// thread count *and* to [`DeepRmi::build_reference`]: training-set
    /// gathering is a stable counting sort over key indices (so every
    /// model sees its keys in the same order the reference's bucket
    /// pushes produced), each model's fit is sequential, and routing is
    /// embarrassingly per-key.
    pub fn build_with_threads(ks: &KeySet, cfg: &DeepRmiConfig, threads: usize) -> Result<Self> {
        if cfg.stage_widths.is_empty() || cfg.stage_widths[0] != 1 {
            return Err(LisError::InvalidRmiConfig(
                "stage_widths must start with a single root model".into(),
            ));
        }
        if cfg.stage_widths.contains(&0) {
            return Err(LisError::InvalidRmiConfig("zero-width stage".into()));
        }
        // Fan-out captures are `Arc`-shared (the persistent pool's workers
        // are `'static`): the keyset's own array, and per-stage working
        // arrays recovered between stages with `try_unwrap` — sound
        // because every backend drops its task clones before completing.
        let keys = ks.shared_keys();
        let n = keys.len();

        let mut stages: Vec<Vec<StageModel>> = Vec::with_capacity(cfg.stage_widths.len());
        // Assignment of every key to a model of the current stage.
        let mut assignment: Vec<u32> = vec![0; n];
        // Reused counting-sort scratch: per-model key-index groups.
        let mut order: Vec<u32> = vec![0; n];
        let mut offsets: Vec<usize> = Vec::new();

        for (depth, &width) in cfg.stage_widths.iter().enumerate() {
            // Gather: a stable counting sort of key indices by model —
            // two O(n) passes and one reused index array instead of the
            // reference path's per-model pair buckets.
            offsets.clear();
            offsets.resize(width + 1, 0);
            for &a in &assignment {
                offsets[(a as usize).min(width - 1) + 1] += 1;
            }
            for m in 0..width {
                offsets[m + 1] += offsets[m];
            }
            let mut cursor = offsets[..width].to_vec();
            for (i, &a) in assignment.iter().enumerate() {
                let m = (a as usize).min(width - 1);
                order[cursor[m]] = i as u32;
                cursor[m] += 1;
            }

            // Fit this stage's models over their (zero-copy) groups, in
            // parallel across models.
            let workers = par::effective_workers(threads, width);
            let shared_order = std::sync::Arc::new(order);
            let shared_offsets = std::sync::Arc::new(offsets);
            let stage: Vec<StageModel> = {
                let keys = std::sync::Arc::clone(&keys);
                let order = std::sync::Arc::clone(&shared_order);
                let offsets = std::sync::Arc::clone(&shared_offsets);
                par::map_chunks(width, workers, move |range| {
                    range
                        .map(|m| {
                            let group = &order[offsets[m]..offsets[m + 1]];
                            let fallback = ((m as f64 + 0.5) / width as f64) * n as f64;
                            let model = if group.len() >= 2 {
                                Some(fit_group(&keys, group))
                            } else {
                                None
                            };
                            StageModel { model, fallback }
                        })
                        .collect()
                })
            };
            order = std::sync::Arc::try_unwrap(shared_order).expect("fan-out released order");
            offsets = std::sync::Arc::try_unwrap(shared_offsets).expect("fan-out released offsets");

            // Route every key through this stage to compute the next
            // assignment (skip after the last stage), in parallel across
            // contiguous key chunks.
            if depth + 1 < cfg.stage_widths.len() {
                let next_width = cfg.stage_widths[depth + 1];
                let shared_stage = std::sync::Arc::new(stage);
                let shared_assignment = std::sync::Arc::new(assignment);
                let routed: Vec<u32> = {
                    let keys = std::sync::Arc::clone(&keys);
                    let stage = std::sync::Arc::clone(&shared_stage);
                    let assignment = std::sync::Arc::clone(&shared_assignment);
                    par::map_chunks(n, par::effective_workers(threads, n), move |range| {
                        range
                            .map(|i| {
                                let m = (assignment[i] as usize).min(width - 1);
                                let pred = stage[m].predict(keys[i]);
                                scale_to_stage(pred, n, next_width) as u32
                            })
                            .collect()
                    })
                };
                assignment = routed;
                drop(shared_assignment);
                stages.push(
                    std::sync::Arc::try_unwrap(shared_stage).expect("fan-out released the stage"),
                );
            } else {
                stages.push(stage);
            }
        }

        // Leaf error bounds from the final assignment: per-chunk partial
        // maxima merged by `max` (order-independent, so thread count
        // cannot change the result).
        let leaf_width = *cfg.stage_widths.last().unwrap();
        let leaves = std::sync::Arc::new(stages.pop().expect("stage_widths is non-empty"));
        let shared_assignment = std::sync::Arc::new(assignment);
        let workers = par::effective_workers(threads, n);
        let chunk = n.div_ceil(workers).max(1);
        let partials: Vec<Vec<usize>> = {
            let keys = std::sync::Arc::clone(&keys);
            let leaves = std::sync::Arc::clone(&leaves);
            let assignment = std::sync::Arc::clone(&shared_assignment);
            par::map_chunks(n.div_ceil(chunk), workers, move |range| {
                range
                    .map(|c| {
                        let mut local = vec![0usize; leaf_width];
                        for i in c * chunk..((c + 1) * chunk).min(n) {
                            let leaf = (assignment[i] as usize).min(leaf_width - 1);
                            let err = (leaves[leaf].predict(keys[i]) - (i + 1) as f64)
                                .abs()
                                .ceil() as usize;
                            local[leaf] = local[leaf].max(err);
                        }
                        local
                    })
                    .collect()
            })
        };
        drop(shared_assignment);
        stages.push(std::sync::Arc::try_unwrap(leaves).expect("fan-out released the leaves"));
        let mut leaf_errors = vec![0usize; leaf_width];
        for local in partials {
            for (e, l) in leaf_errors.iter_mut().zip(local) {
                *e = (*e).max(l);
            }
        }

        Ok(Self {
            stages,
            keys,
            leaf_errors,
            scratch: ScratchPool::new(),
        })
    }

    /// The pre-optimization training pass — per-model pair buckets cloned
    /// from a materialized CDF, serial fits — kept callable as the
    /// reference of `tests/property_buildpath.rs`. Produces the same index as
    /// [`DeepRmi::build`] bit for bit.
    pub fn build_reference(ks: &KeySet, cfg: &DeepRmiConfig) -> Result<Self> {
        if cfg.stage_widths.is_empty() || cfg.stage_widths[0] != 1 {
            return Err(LisError::InvalidRmiConfig(
                "stage_widths must start with a single root model".into(),
            ));
        }
        if cfg.stage_widths.contains(&0) {
            return Err(LisError::InvalidRmiConfig("zero-width stage".into()));
        }
        let n = ks.len();
        let pairs: Vec<(Key, usize)> = ks.cdf_pairs().collect();

        let mut stages: Vec<Vec<StageModel>> = Vec::with_capacity(cfg.stage_widths.len());
        // Assignment of every key to a model of the current stage.
        let mut assignment: Vec<usize> = vec![0; n];

        for (depth, &width) in cfg.stage_widths.iter().enumerate() {
            // Gather training sets per model of this stage.
            let mut buckets: Vec<Vec<(Key, usize)>> = vec![Vec::new(); width];
            for (i, &(k, r)) in pairs.iter().enumerate() {
                buckets[assignment[i].min(width - 1)].push((k, r));
            }
            let mut stage = Vec::with_capacity(width);
            for (m_idx, bucket) in buckets.iter().enumerate() {
                let fallback = ((m_idx as f64 + 0.5) / width as f64) * n as f64;
                let model = if bucket.len() >= 2 {
                    Some(LinearModel::fit_pairs(bucket)?)
                } else {
                    None
                };
                stage.push(StageModel { model, fallback });
            }

            // Route every key through this stage to compute the next
            // assignment (skip after the last stage).
            if depth + 1 < cfg.stage_widths.len() {
                let next_width = cfg.stage_widths[depth + 1];
                for (i, &(k, _)) in pairs.iter().enumerate() {
                    let pred = stage[assignment[i].min(width - 1)].predict(k);
                    assignment[i] = scale_to_stage(pred, n, next_width);
                }
            }
            stages.push(stage);
        }

        // Leaf error bounds from the final assignment.
        let leaf_width = *cfg.stage_widths.last().unwrap();
        let mut leaf_errors = vec![0usize; leaf_width];
        let leaves = stages.last().unwrap();
        for (i, &(k, r)) in pairs.iter().enumerate() {
            let leaf = assignment[i].min(leaf_width - 1);
            let err = (leaves[leaf].predict(k) - r as f64).abs().ceil() as usize;
            leaf_errors[leaf] = leaf_errors[leaf].max(err);
        }

        Ok(Self {
            stages,
            keys: ks.shared_keys(),
            leaf_errors,
            scratch: ScratchPool::new(),
        })
    }

    /// Number of stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Number of leaf models.
    pub fn num_leaves(&self) -> usize {
        self.stages.last().map(Vec::len).unwrap_or(0)
    }

    /// Total number of models across stages (storage proxy).
    pub fn num_models(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Largest leaf last-mile radius.
    pub fn max_leaf_error(&self) -> usize {
        self.leaf_errors.iter().copied().max().unwrap_or(0)
    }

    /// Routes `key` to its leaf index.
    pub fn route(&self, key: Key) -> usize {
        let n = self.keys.len();
        let mut idx = 0usize;
        for (depth, stage) in self.stages.iter().enumerate() {
            let pred = stage[idx.min(stage.len() - 1)].predict(key);
            if depth + 1 < self.stages.len() {
                idx = scale_to_stage(pred, n, self.stages[depth + 1].len());
            }
        }
        idx.min(self.num_leaves() - 1)
    }

    /// Predicted global 0-based position for `key` served by `leaf`.
    fn predict_at_leaf(&self, leaf: usize, key: Key) -> usize {
        let pred = self.stages.last().unwrap()[leaf].predict(key) - 1.0;
        pred.round().clamp(0.0, (self.keys.len() - 1) as f64) as usize
    }

    /// Predicted global 0-based position for `key`.
    pub fn predict_pos(&self, key: Key) -> usize {
        self.predict_at_leaf(self.route(key), key)
    }

    /// Lookup served by a known leaf: error-bounded last-mile search with
    /// the leaf's stored maximum training error as the window radius (+1
    /// for rounding). Query-time routing replays the training-time
    /// assignment exactly, so member keys always land within their leaf's
    /// recorded error; the exponential fallback only fires for absent
    /// keys predicted out of bound.
    fn lookup_at_leaf(&self, leaf: usize, key: Key) -> Lookup {
        let guess = self.predict_at_leaf(leaf, key);
        let radius = self.leaf_errors[leaf] + 1;
        bounded_search_with_fallback(&self.keys, key, guess, radius).into()
    }

    /// Full lookup with error-bounded last-mile search.
    pub fn lookup(&self, key: Key) -> Lookup {
        self.lookup_at_leaf(self.route(key), key)
    }

    /// Sorted-batch lookup into a reused buffer: probes sweep the key
    /// array in sorted order (results restored to probe order), so the
    /// per-stage model walks and last-mile windows move monotonically
    /// through memory. Each probe is served by [`DeepRmi::lookup`] itself,
    /// so per-probe results are identical to it by construction.
    pub fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        crate::index::sorted_batch_into(&self.scratch, keys, out, |k| self.lookup(k));
    }

    /// Mean MSE over the trained leaf models (untrained leaves excluded) —
    /// the multi-stage analogue of [`crate::rmi::Rmi::rmi_loss`].
    pub fn leaf_loss(&self) -> f64 {
        let leaves = self.stages.last().expect("built index has stages");
        let (sum, count) = leaves
            .iter()
            .filter_map(|m| m.model.as_ref().map(|m| m.mse))
            .fold((0.0, 0usize), |(s, c), mse| (s + mse, c + 1));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

impl LearnedIndex for DeepRmi {
    fn lookup(&self, key: Key) -> Lookup {
        DeepRmi::lookup(self, key)
    }

    fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        DeepRmi::lookup_batch_into(self, keys, out)
    }

    fn loss(&self) -> f64 {
        self.leaf_loss()
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.num_models() * std::mem::size_of::<StageModel>()
            + self.keys.len() * std::mem::size_of::<Key>()
            + self.leaf_errors.len() * std::mem::size_of::<usize>()
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Scales a rank prediction over `n` keys to a stage of `width` models —
/// the shared clamped helper ([`crate::rmi::scale_to_width`]), so build
/// and query routing can never diverge.
fn scale_to_stage(pred: f64, n: usize, width: usize) -> usize {
    scale_to_width(pred, n, width)
}

/// Fits one stage model over its routed key-index group without cloning
/// CDF pairs. Replicates [`LinearModel::fit_pairs`] exactly: the group is
/// in ascending key order (stable counting sort), so its first/last
/// entries are the reference path's `min`/`max`, the shift matches, and
/// the moment accumulation runs over the same pairs in the same order —
/// bit-identical models.
fn fit_group(keys: &[Key], group: &[u32]) -> LinearModel {
    debug_assert!(group.len() >= 2);
    let lo = keys[group[0] as usize];
    let hi = keys[group[group.len() - 1] as usize];
    let shift = midpoint_shift(lo, hi);
    let m = CdfMoments::from_pairs_shifted(
        group.iter().map(|&i| (keys[i as usize], i as usize + 1)),
        shift,
    );
    LinearModel::from_moments(&m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    fn skewed(n: u64) -> KeySet {
        KeySet::from_keys((1..=n).map(|i| i * i).collect()).unwrap()
    }

    #[test]
    fn validates_config() {
        let ks = uniform(100, 3);
        assert!(DeepRmi::build(
            &ks,
            &DeepRmiConfig {
                stage_widths: vec![]
            }
        )
        .is_err());
        assert!(DeepRmi::build(
            &ks,
            &DeepRmiConfig {
                stage_widths: vec![2, 10]
            }
        )
        .is_err());
        assert!(DeepRmi::build(
            &ks,
            &DeepRmiConfig {
                stage_widths: vec![1, 0]
            }
        )
        .is_err());
    }

    #[test]
    fn two_stage_finds_all_keys() {
        let ks = uniform(2_000, 7);
        let rmi = DeepRmi::build(&ks, &DeepRmiConfig::two_stage(40)).unwrap();
        assert_eq!(rmi.depth(), 2);
        for (i, &k) in ks.keys().iter().enumerate() {
            assert_eq!(rmi.lookup(k).pos, Some(i), "key {k}");
        }
    }

    #[test]
    fn three_stage_finds_all_keys_on_skewed_data() {
        let ks = skewed(3_000);
        let rmi = DeepRmi::build(&ks, &DeepRmiConfig::three_stage(10, 100)).unwrap();
        assert_eq!(rmi.depth(), 3);
        assert_eq!(rmi.num_models(), 111);
        for (i, &k) in ks.keys().iter().enumerate().step_by(7) {
            assert_eq!(rmi.lookup(k).pos, Some(i), "key {k}");
        }
    }

    #[test]
    fn absent_keys_not_found() {
        let ks = uniform(500, 10);
        let rmi = DeepRmi::build(&ks, &DeepRmiConfig::three_stage(5, 50)).unwrap();
        for k in [1u64, 15, 4_999, 100_000] {
            assert_eq!(rmi.lookup(k).pos, None, "key {k}");
        }
    }

    #[test]
    fn deeper_hierarchy_reduces_leaf_error_on_skewed_data() {
        let ks = skewed(5_000);
        let shallow = DeepRmi::build(&ks, &DeepRmiConfig::two_stage(50)).unwrap();
        let deep = DeepRmi::build(&ks, &DeepRmiConfig::three_stage(50, 500)).unwrap();
        assert!(
            deep.max_leaf_error() <= shallow.max_leaf_error(),
            "deep {} vs shallow {}",
            deep.max_leaf_error(),
            shallow.max_leaf_error()
        );
    }

    #[test]
    fn empty_leaves_are_tolerated() {
        // Heavily skewed data routes nothing to many leaves; lookups must
        // still succeed everywhere.
        let ks = skewed(500);
        let rmi = DeepRmi::build(&ks, &DeepRmiConfig::three_stage(20, 400)).unwrap();
        for (i, &k) in ks.keys().iter().enumerate().step_by(11) {
            assert_eq!(rmi.lookup(k).pos, Some(i));
        }
    }

    #[test]
    fn optimized_and_parallel_builds_match_reference_bitwise() {
        for ks in [skewed(2_200), uniform(1_800, 9)] {
            let cfg = DeepRmiConfig::three_stage(9, 110);
            let reference = DeepRmi::build_reference(&ks, &cfg).unwrap();
            for threads in [1usize, 2, 5] {
                let built = DeepRmi::build_with_threads(&ks, &cfg, threads).unwrap();
                assert_eq!(
                    built.leaf_loss().to_bits(),
                    reference.leaf_loss().to_bits(),
                    "{threads} threads"
                );
                assert_eq!(built.leaf_errors, reference.leaf_errors);
                assert_eq!(built.num_models(), reference.num_models());
                for (sa, sb) in built.stages.iter().zip(&reference.stages) {
                    for (ma, mb) in sa.iter().zip(sb) {
                        assert_eq!(ma.fallback.to_bits(), mb.fallback.to_bits());
                        match (&ma.model, &mb.model) {
                            (None, None) => {}
                            (Some(a), Some(b)) => {
                                assert_eq!(a.w.to_bits(), b.w.to_bits());
                                assert_eq!(a.b.to_bits(), b.b.to_bits());
                                assert_eq!(a.mse.to_bits(), b.mse.to_bits());
                            }
                            other => panic!("model presence diverged: {other:?}"),
                        }
                    }
                }
                let mut probes: Vec<Key> = ks.keys().iter().step_by(17).copied().collect();
                probes.extend([0, 3, ks.max_key() + 5]);
                for k in probes {
                    assert_eq!(built.lookup(k), reference.lookup(k), "key {k}");
                }
            }
        }
    }

    #[test]
    fn sorted_batch_matches_single_lookup_exactly() {
        let ks = skewed(2_500);
        let rmi = DeepRmi::build(&ks, &DeepRmiConfig::three_stage(8, 120)).unwrap();
        let mut probes: Vec<Key> = ks.keys().iter().rev().step_by(7).copied().collect();
        probes.extend([0, 3, ks.max_key() + 1, Key::MAX]);
        probes.push(probes[1]);
        let mut out = Vec::new();
        rmi.lookup_batch_into(&probes, &mut out);
        assert_eq!(out.len(), probes.len());
        for (&k, &got) in probes.iter().zip(&out) {
            assert_eq!(got, rmi.lookup(k), "key {k}");
        }
        assert_eq!(rmi.scratch.idle(), 1);
    }

    #[test]
    fn bounded_lookup_cost_respects_leaf_error_window() {
        let ks = uniform(5_000, 9);
        let rmi = DeepRmi::build(&ks, &DeepRmiConfig::three_stage(5, 50)).unwrap();
        let radius = rmi.max_leaf_error() + 1;
        let bound = crate::search::lane_window_cost_bound(2 * radius + 1);
        for &k in ks.keys().iter().step_by(61) {
            let hit = rmi.lookup(k);
            assert!(hit.found, "member {k} lost");
            assert!(
                hit.cost <= bound,
                "cost {} > window bound {bound}",
                hit.cost
            );
        }
    }

    #[test]
    fn poisoning_degrades_deep_rmi_too() {
        let ks = uniform(2_000, 9);
        let clean = DeepRmi::build(&ks, &DeepRmiConfig::three_stage(8, 80)).unwrap();

        let mut poisoned = ks.clone();
        for j in 0..200u64 {
            let k = 9_001 + j * 2;
            if !poisoned.contains(k) {
                poisoned.insert(k).unwrap();
            }
        }
        let bad = DeepRmi::build(&poisoned, &DeepRmiConfig::three_stage(8, 80)).unwrap();
        // The clean keys are still found, but the error radius grows.
        for (i, &k) in poisoned.keys().iter().enumerate().step_by(13) {
            assert_eq!(bad.lookup(k).pos, Some(i));
        }
        assert!(bad.max_leaf_error() >= clean.max_leaf_error());
    }
}
