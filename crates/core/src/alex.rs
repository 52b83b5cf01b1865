//! A simplified updatable adaptive learned index (ALEX family).
//!
//! The paper's future-work section warns that updatable learned indexes
//! \[ALEX; Hadian & Heinis\] widen the attack surface: "we need to consider
//! adversaries that use the update functionality of LIS to expand their
//! attack surface" (Section VI). This module provides the substrate for
//! studying exactly that: a two-level updatable index in the ALEX mould —
//!
//! * leaves are **gapped arrays**: sorted keys with interleaved empty slots
//!   so model-predicted insertion is usually cheap;
//! * each leaf carries a linear model trained on its own key distribution,
//!   used for both lookups and insert placement;
//! * a leaf that exceeds its fill bound **splits** at the median and both
//!   halves retrain — the adaptation mechanism an online adversary abuses
//!   (every split costs a retrain + re-spacing, and skewed poison inserts
//!   concentrate splits).
//!
//! Cost accounting (probes walked, elements shifted, splits, retrains) is
//! exposed so the `abl-update` entry of `lis::figures` can price the attack.

use crate::error::{LisError, Result};
use crate::index::{LearnedIndex, Lookup};
use crate::keys::{Key, KeySet};

/// Configuration of the updatable index.
#[derive(Debug, Clone, Copy)]
pub struct AlexConfig {
    /// Slot capacity of a leaf's gapped array.
    pub leaf_capacity: usize,
    /// Fraction of slots occupied after build / split (0 < f < fill_high).
    pub fill_low: f64,
    /// Occupancy fraction that triggers a split.
    pub fill_high: f64,
}

impl Default for AlexConfig {
    fn default() -> Self {
        Self {
            leaf_capacity: 256,
            fill_low: 0.5,
            fill_high: 0.8,
        }
    }
}

/// Write-side cost counters, cumulative over the index lifetime.
///
/// Lookups are pure reads (`&self`) and report their probe cost on each
/// returned [`Lookup`] instead of mutating shared counters — the read and
/// write paths are deliberately split so read-side stats never require
/// `&mut self`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlexStats {
    /// Slots probed during inserts (duplicate check + placement search).
    pub insert_probes: u64,
    /// Elements shifted to open a gap.
    pub shifts: u64,
    /// Leaf splits performed.
    pub splits: u64,
    /// Model retrains (initial builds excluded).
    pub retrains: u64,
}

/// One leaf: a sorted gapped array plus its local model.
#[derive(Debug, Clone)]
struct Leaf {
    slots: Vec<Option<Key>>,
    len: usize,
    model: LeafModel,
}

/// Leaf model: predicts a slot from a key (linear fit of slot index against
/// key over the occupied slots).
#[derive(Debug, Clone, Copy)]
struct LeafModel {
    w: f64,
    b: f64,
}

impl LeafModel {
    fn fit(slots: &[Option<Key>]) -> Self {
        // Fit slot-index-vs-key over occupied slots (closed form OLS).
        let pts: Vec<(f64, f64)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|k| (k as f64, i as f64)))
            .collect();
        if pts.len() < 2 {
            return Self {
                w: 0.0,
                b: pts.first().map(|p| p.1).unwrap_or(0.0),
            };
        }
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let cov = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
        let var = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum::<f64>();
        if var <= 0.0 {
            return Self { w: 0.0, b: my };
        }
        let w = cov / var;
        Self { w, b: my - w * mx }
    }

    fn predict(&self, key: Key, capacity: usize) -> usize {
        (self.w * key as f64 + self.b)
            .round()
            .clamp(0.0, (capacity - 1) as f64) as usize
    }
}

/// The updatable adaptive learned index.
#[derive(Debug, Clone)]
pub struct AlexIndex {
    cfg: AlexConfig,
    /// Smallest key of each leaf (routing).
    boundaries: Vec<Key>,
    leaves: Vec<Leaf>,
    stats: AlexStats,
    len: usize,
}

impl AlexIndex {
    /// Bulk-loads the index from a keyset.
    pub fn build(ks: &KeySet, cfg: AlexConfig) -> Result<Self> {
        if cfg.leaf_capacity < 4 {
            return Err(LisError::Invariant("leaf capacity must be ≥ 4".into()));
        }
        if !(0.0 < cfg.fill_low && cfg.fill_low < cfg.fill_high && cfg.fill_high <= 1.0) {
            return Err(LisError::Invariant(
                "need 0 < fill_low < fill_high ≤ 1".into(),
            ));
        }
        let per_leaf = ((cfg.leaf_capacity as f64 * cfg.fill_low) as usize).max(1);
        let mut leaves = Vec::new();
        let mut boundaries = Vec::new();
        for chunk in ks.keys().chunks(per_leaf) {
            boundaries.push(chunk[0]);
            leaves.push(Leaf::from_sorted(chunk, cfg.leaf_capacity));
        }
        Ok(Self {
            cfg,
            boundaries,
            leaves,
            stats: AlexStats::default(),
            len: ks.len(),
        })
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Cumulative cost counters.
    pub fn stats(&self) -> AlexStats {
        self.stats
    }

    /// Resets the cost counters (e.g. after the build phase).
    pub fn reset_stats(&mut self) {
        self.stats = AlexStats::default();
    }

    fn route(&self, key: Key) -> usize {
        match self.boundaries.binary_search(&key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Looks up `key`, reporting membership and the slot-probe cost.
    pub fn lookup(&self, key: Key) -> Lookup {
        let leaf = &self.leaves[self.route(key)];
        let (found, probes) = leaf.find(key);
        Lookup::membership(found, probes as usize)
    }

    /// Whether `key` is present (pure read).
    pub fn contains(&self, key: Key) -> bool {
        self.lookup(key).found
    }

    /// Inserts `key`; errors on duplicates.
    pub fn insert(&mut self, key: Key) -> Result<()> {
        let leaf_idx = self.route(key);
        {
            let leaf = &mut self.leaves[leaf_idx];
            let (found, probes) = leaf.find(key);
            self.stats.insert_probes += probes;
            if found {
                return Err(LisError::DuplicateKey(key));
            }
            let (probes, shifts) = leaf.insert(key);
            self.stats.insert_probes += probes;
            self.stats.shifts += shifts;
            self.len += 1;
        }
        // Maintain routing for a new minimum.
        if key < self.boundaries[leaf_idx] {
            self.boundaries[leaf_idx] = key;
        }
        // Split when over the fill bound.
        let occupancy = self.leaves[leaf_idx].len as f64 / self.cfg.leaf_capacity as f64;
        if occupancy > self.cfg.fill_high {
            self.split(leaf_idx);
        }
        Ok(())
    }

    /// Removes `key`; errors with [`LisError::KeyNotFound`] when absent.
    ///
    /// The slot is simply vacated — a gapped array treats a removal as one
    /// more gap, so no shifting or retraining is needed. A leaf boundary
    /// may go stale (the routing key of a leaf whose minimum was removed),
    /// which is harmless: it still routes every remaining key to the same
    /// leaf, and lookups of the removed key correctly miss there.
    pub fn remove(&mut self, key: Key) -> Result<()> {
        let leaf_idx = self.route(key);
        let leaf = &mut self.leaves[leaf_idx];
        let (found, probes) = leaf.find(key);
        self.stats.insert_probes += probes;
        if !found {
            return Err(LisError::KeyNotFound(key));
        }
        leaf.remove(key);
        self.len -= 1;
        Ok(())
    }

    fn split(&mut self, leaf_idx: usize) {
        let keys = self.leaves[leaf_idx].occupied();
        let mid = keys.len() / 2;
        let left = Leaf::from_sorted(&keys[..mid], self.cfg.leaf_capacity);
        let right = Leaf::from_sorted(&keys[mid..], self.cfg.leaf_capacity);
        let right_boundary = keys[mid];
        self.leaves[leaf_idx] = left;
        self.leaves.insert(leaf_idx + 1, right);
        self.boundaries.insert(leaf_idx + 1, right_boundary);
        self.stats.splits += 1;
        self.stats.retrains += 2;
    }

    /// All stored keys in sorted order (test/diagnostic helper).
    pub fn keys(&self) -> Vec<Key> {
        self.leaves.iter().flat_map(|l| l.occupied()).collect()
    }

    /// Mean lookup probes over the given keys (a pure read: per-call costs
    /// are summed from the returned [`Lookup`]s, not from shared counters).
    pub fn mean_lookup_probes(&self, keys: &[Key]) -> f64 {
        let total: usize = keys.iter().map(|&k| self.lookup(k).cost).sum();
        total as f64 / keys.len().max(1) as f64
    }
}

impl LearnedIndex for AlexIndex {
    fn lookup(&self, key: Key) -> Lookup {
        AlexIndex::lookup(self, key)
    }

    /// The gapped-array leaves track no regression loss; zero by definition.
    fn loss(&self) -> f64 {
        0.0
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.boundaries.len() * std::mem::size_of::<Key>()
            + self
                .leaves
                .iter()
                .map(|l| {
                    std::mem::size_of::<Leaf>() + l.slots.len() * std::mem::size_of::<Option<Key>>()
                })
                .sum::<usize>()
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl Leaf {
    /// Builds a leaf from sorted keys, spacing them evenly through the
    /// gapped array ("model-based layout" simplification).
    fn from_sorted(keys: &[Key], capacity: usize) -> Self {
        let mut slots = vec![None; capacity];
        let n = keys.len();
        for (i, &k) in keys.iter().enumerate() {
            // Spread: slot = i * capacity / n, collision-free since i < n.
            let slot = i * capacity / n.max(1);
            slots[slot] = Some(k);
        }
        let model = LeafModel::fit(&slots);
        Self {
            slots,
            len: n,
            model,
        }
    }

    /// Occupied keys in order.
    fn occupied(&self) -> Vec<Key> {
        self.slots.iter().filter_map(|s| *s).collect()
    }

    /// Finds `key` starting from the model's predicted slot, walking
    /// outward. Returns `(found, probes)`.
    fn find(&self, key: Key) -> (bool, u64) {
        let cap = self.slots.len();
        let start = self.model.predict(key, cap);
        let mut probes = 0u64;
        // Walk outward in both directions; in a sorted gapped array the
        // first occupied slot on each side bounds the direction to keep.
        for radius in 0..cap {
            let mut checked_any = false;
            if start + radius < cap {
                probes += 1;
                checked_any = true;
                if let Some(k) = self.slots[start + radius] {
                    if k == key {
                        return (true, probes);
                    }
                    if k > key && radius > 0 {
                        // Sorted: key would sit left of here; keep scanning
                        // left only (handled by the radius loop's left arm).
                    }
                }
            }
            if radius > 0 && start >= radius {
                probes += 1;
                checked_any = true;
                if let Some(k) = self.slots[start - radius] {
                    if k == key {
                        return (true, probes);
                    }
                }
            }
            if !checked_any {
                break;
            }
            // Early exit: if both sides have passed the key's sorted
            // position, it cannot exist. Conservative check every 8 slots.
            if radius % 8 == 7 {
                let right_passed = self.slots[(start + radius).min(cap - 1)]
                    .map(|k| k > key)
                    .unwrap_or(false);
                let left_passed = start
                    .checked_sub(radius)
                    .and_then(|i| self.slots[i])
                    .map(|k| k < key)
                    .unwrap_or(false);
                if right_passed && left_passed {
                    return (false, probes);
                }
            }
        }
        (false, probes)
    }

    /// Vacates the slot holding `key` (which must be present).
    fn remove(&mut self, key: Key) {
        let slot = self
            .slots
            .iter()
            .position(|s| *s == Some(key))
            .expect("remove() called for a key find() reported present");
        self.slots[slot] = None;
        self.len -= 1;
    }

    /// Inserts `key` near its predicted slot: locates the sorted insertion
    /// region, finds the nearest gap, and shifts the in-between elements.
    /// Returns `(probes, shifts)`.
    fn insert(&mut self, key: Key) -> (u64, u64) {
        let cap = self.slots.len();
        debug_assert!(self.len < cap, "leaf split must trigger before overflow");
        // Sorted insertion position over occupied slots: first occupied
        // slot holding a key greater than `key`.
        let mut pos = cap; // slot index before which the key belongs
        let mut probes = 0u64;
        for (i, s) in self.slots.iter().enumerate() {
            probes += 1;
            if let Some(k) = s {
                if *k > key {
                    pos = i;
                    break;
                }
            }
        }
        // Nearest free slot left of `pos` (insert there by shifting left
        // run), else nearest free slot right of `pos`.
        let mut shifts = 0u64;
        let left_gap = (0..pos.min(cap)).rev().find(|&i| self.slots[i].is_none());
        let right_gap = (pos..cap).find(|&i| self.slots[i].is_none());
        match (left_gap, right_gap) {
            (Some(g), _) if pos == 0 || g == pos.saturating_sub(1) || right_gap.is_none() => {
                // Shift (g, pos) left by one, insert at pos-1.
                let target = pos - 1;
                for i in g..target {
                    self.slots[i] = self.slots[i + 1];
                    shifts += 1;
                }
                self.slots[target] = Some(key);
            }
            (_, Some(g)) => {
                // Shift [pos, g) right by one, insert at pos.
                let mut i = g;
                while i > pos {
                    self.slots[i] = self.slots[i - 1];
                    shifts += 1;
                    i -= 1;
                }
                self.slots[pos] = Some(key);
            }
            (Some(g), None) => {
                let target = pos - 1;
                for i in g..target {
                    self.slots[i] = self.slots[i + 1];
                    shifts += 1;
                }
                self.slots[target] = Some(key);
            }
            (None, None) => unreachable!("leaf must have a free slot"),
        }
        self.len += 1;
        (probes, shifts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step + 1).collect()).unwrap()
    }

    #[test]
    fn build_validates_config() {
        let ks = uniform(100, 3);
        assert!(AlexIndex::build(
            &ks,
            AlexConfig {
                leaf_capacity: 2,
                ..Default::default()
            }
        )
        .is_err());
        assert!(AlexIndex::build(
            &ks,
            AlexConfig {
                fill_low: 0.9,
                fill_high: 0.5,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn build_and_find_all() {
        let ks = uniform(1_000, 7);
        let idx = AlexIndex::build(&ks, AlexConfig::default()).unwrap();
        for &k in ks.keys() {
            assert!(idx.contains(k), "key {k}");
        }
        for k in [0u64, 2, 5000, 9_999_999] {
            assert!(!idx.contains(k), "key {k}");
        }
    }

    #[test]
    fn insert_maintains_sorted_order() {
        let ks = uniform(200, 10);
        let mut idx = AlexIndex::build(&ks, AlexConfig::default()).unwrap();
        for k in [5u64, 15, 25, 1995, 999, 1004] {
            idx.insert(k).unwrap();
        }
        let keys = idx.keys();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
        assert_eq!(idx.len(), 206);
        for k in [5u64, 15, 25, 1995, 999, 1004] {
            assert!(idx.contains(k));
        }
    }

    #[test]
    fn remove_vacates_slots_and_keeps_order() {
        let ks = uniform(300, 10);
        let mut idx = AlexIndex::build(&ks, AlexConfig::default()).unwrap();
        // Remove a spread of keys, including a leaf minimum (key 1).
        for k in [1u64, 501, 1001, 2991] {
            idx.remove(k).unwrap();
            assert!(!idx.contains(k), "removed key {k} still found");
        }
        assert_eq!(idx.len(), 296);
        assert!(matches!(idx.remove(1), Err(LisError::KeyNotFound(1))));
        let keys = idx.keys();
        assert_eq!(keys.len(), 296);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
        // Reinsert into the vacated region; everything stays consistent.
        idx.insert(1).unwrap();
        assert!(idx.contains(1));
        assert_eq!(idx.len(), 297);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let ks = uniform(50, 3);
        let mut idx = AlexIndex::build(&ks, AlexConfig::default()).unwrap();
        assert!(matches!(idx.insert(1), Err(LisError::DuplicateKey(1))));
    }

    #[test]
    fn heavy_inserts_trigger_splits() {
        let ks = uniform(500, 100);
        let cfg = AlexConfig {
            leaf_capacity: 64,
            fill_low: 0.5,
            fill_high: 0.8,
        };
        let mut idx = AlexIndex::build(&ks, cfg).unwrap();
        let leaves_before = idx.num_leaves();
        // Hammer one region with inserts (the update-channel attack shape).
        let mut inserted = 0;
        for k in 10_000..12_000u64 {
            if idx.insert(k).is_ok() {
                inserted += 1;
            }
        }
        assert!(inserted > 1_000);
        assert!(idx.num_leaves() > leaves_before);
        assert!(idx.stats().splits > 0);
        // Everything still findable.
        for &k in ks.keys().iter().step_by(13) {
            assert!(idx.contains(k));
        }
        for k in (10_000..12_000u64).step_by(37) {
            assert!(idx.contains(k));
        }
    }

    #[test]
    fn skewed_inserts_cost_more_than_spread_inserts() {
        let build = || {
            let ks = uniform(2_000, 50);
            AlexIndex::build(&ks, AlexConfig::default()).unwrap()
        };
        // Spread inserts: evenly interleaved new keys.
        let mut spread = build();
        spread.reset_stats();
        for i in 0..500u64 {
            let _ = spread.insert(i * 200 + 7);
        }
        // Skewed inserts: one dense clump.
        let mut skew = build();
        skew.reset_stats();
        for i in 0..500u64 {
            let _ = skew.insert(50_001 + i);
        }
        let spread_cost = spread.stats().shifts + spread.stats().insert_probes;
        let skew_cost = skew.stats().shifts + skew.stats().insert_probes;
        assert!(
            skew_cost > spread_cost,
            "clustered updates should cost more: {skew_cost} vs {spread_cost}"
        );
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let ks = uniform(100, 5);
        let mut idx = AlexIndex::build(&ks, AlexConfig::default()).unwrap();
        idx.insert(2).unwrap();
        assert!(idx.stats().insert_probes > 0);
        idx.reset_stats();
        assert_eq!(idx.stats(), AlexStats::default());
    }

    #[test]
    fn lookups_are_pure_reads() {
        let ks = uniform(200, 9);
        let idx = AlexIndex::build(&ks, AlexConfig::default()).unwrap();
        let before = idx.stats();
        for &k in ks.keys() {
            let hit = idx.lookup(k);
            assert!(hit.found);
            assert!(hit.cost > 0, "every lookup probes at least one slot");
        }
        assert_eq!(
            idx.stats(),
            before,
            "read path must not touch write-side counters"
        );
    }

    #[test]
    fn mean_lookup_probes_reflects_model_quality() {
        let ks = uniform(1_000, 11);
        let idx = AlexIndex::build(&ks, AlexConfig::default()).unwrap();
        let probes = idx.mean_lookup_probes(ks.keys());
        // Near-linear data: the leaf models place keys accurately.
        assert!(probes < 8.0, "mean probes {probes}");
    }
}
