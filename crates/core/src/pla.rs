//! Error-bounded piecewise linear approximation (PLA) index — a
//! FITing-tree / PGM-style learned index.
//!
//! The paper's future-work section singles out "learned index structures
//! based on different regression models as well as interpolation
//! structures" as the next attack surface. This module provides that
//! substrate: a one-pass greedy *shrinking cone* segmentation of the CDF
//! such that every key's predicted rank is within `epsilon` of its true
//! rank, plus a two-level index (binary search over segment boundaries,
//! then the segment's linear model, then an `epsilon`-bounded local
//! search).
//!
//! The attack-relevant property is the dual of the RMI's: a poisoned CDF
//! does not *mis-predict* (the error bound is enforced at build time) — it
//! forces the builder to cut **more segments**, inflating the index's
//! memory footprint and search depth. The `abl-pla` entry of
//! `lis::figures` measures exactly that trade-off.

use crate::error::{LisError, Result};
use crate::index::{LearnedIndex, Lookup};
use crate::keys::{Key, KeySet};
use crate::scratch::ScratchPool;
use crate::search::bounded_search_with_fallback;
use std::sync::Arc;

/// One PLA segment: keys in `[first_key, last_key]` are predicted by
/// `rank ≈ slope·(key − first_key) + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Smallest key covered by the segment.
    pub first_key: Key,
    /// Largest key covered by the segment.
    pub last_key: Key,
    /// Slope of the local model (ranks per key unit).
    pub slope: f64,
    /// Predicted rank of `first_key` (0-based position + 1).
    pub intercept: f64,
    /// Index of the segment's first key in the global sorted array.
    pub start: usize,
    /// Number of keys covered.
    pub len: usize,
}

impl Segment {
    /// Predicted global 0-based position for `key`.
    pub fn predict_pos(&self, key: Key, total: usize) -> usize {
        let p = self.slope * (key.saturating_sub(self.first_key)) as f64 + self.intercept - 1.0;
        p.round().clamp(0.0, (total - 1) as f64) as usize
    }
}

/// An `epsilon`-bounded piecewise linear index over a sorted keyset.
#[derive(Debug, Clone)]
pub struct PlaIndex {
    segments: Vec<Segment>,
    /// The keyset's own array, shared ([`KeySet::shared_keys`]).
    keys: Arc<Vec<Key>>,
    epsilon: usize,
    /// Mean squared training error, computed once at build time.
    training_loss: f64,
    /// Largest training prediction error, computed once at build time.
    max_train_err: usize,
    /// Pooled `(key, slot)` permutation buffers for the sorted-batch path.
    scratch: ScratchPool<Vec<(Key, usize)>>,
}

impl PlaIndex {
    /// Builds the index with the given error bound (`epsilon ≥ 1`).
    ///
    /// Uses the standard shrinking-cone construction: extend the current
    /// segment while some line through the segment origin stays within
    /// `±epsilon` of every covered rank; cut a new segment when the cone
    /// closes. One pass, `O(n)` — and the training statistics
    /// ([`PlaIndex::loss`]/[`PlaIndex::max_training_error`]) stream out of
    /// a second `O(n)` sweep over the freshly-cut segments at build time,
    /// so reading them later costs nothing (the pipeline reads the loss
    /// of every victim it builds; the old implementation re-routed every
    /// key through a per-key binary search on every call).
    pub fn build(ks: &KeySet, epsilon: usize) -> Result<Self> {
        let segments = Self::cut_segments(ks, epsilon)?;
        // Streaming stats: segments tile the keyset in order, so each
        // key's responsible segment is the one covering its range — the
        // same segment `segment_for` routes to — and the sweep touches
        // keys in exactly the order the routed reference path does,
        // keeping the sums bit-identical.
        let keys = ks.keys();
        let total = keys.len();
        let mut sum_sq = 0.0f64;
        let mut max_err = 0usize;
        for seg in &segments {
            for (i, &k) in keys[seg.start..seg.start + seg.len].iter().enumerate() {
                let e = seg.predict_pos(k, total).abs_diff(seg.start + i);
                max_err = max_err.max(e);
                let e = e as f64;
                sum_sq += e * e;
            }
        }
        Ok(Self {
            segments,
            keys: ks.shared_keys(),
            epsilon,
            training_loss: if total == 0 {
                0.0
            } else {
                sum_sq / total as f64
            },
            max_train_err: max_err,
            scratch: ScratchPool::new(),
        })
    }

    /// The pre-optimization build path, kept callable as the reference of
    /// `tests/property_buildpath.rs`: the same cone construction, but training
    /// statistics computed the way the old `loss()` did on every call —
    /// each key re-routed through the per-key segment binary search.
    /// Produces an index identical to [`PlaIndex::build`].
    pub fn build_reference(ks: &KeySet, epsilon: usize) -> Result<Self> {
        let mut out = Self {
            segments: Self::cut_segments(ks, epsilon)?,
            keys: ks.shared_keys(),
            epsilon,
            training_loss: 0.0,
            max_train_err: 0,
            scratch: ScratchPool::new(),
        };
        out.training_loss = out.loss_recomputed();
        out.max_train_err = out.max_training_error_recomputed();
        Ok(out)
    }

    /// The shrinking-cone segmentation shared by both build paths.
    fn cut_segments(ks: &KeySet, epsilon: usize) -> Result<Vec<Segment>> {
        if epsilon == 0 {
            return Err(LisError::Invariant("PLA epsilon must be ≥ 1".into()));
        }
        let keys = ks.keys();
        let mut segments = Vec::new();
        let eps = epsilon as f64;

        let mut start = 0usize;
        while start < keys.len() {
            let origin_key = keys[start];
            let origin_rank = (start + 1) as f64;
            // Cone of feasible slopes, starts fully open.
            let mut lo_slope = 0.0f64;
            let mut hi_slope = f64::INFINITY;
            let mut end = start + 1;
            while end < keys.len() {
                let dx = (keys[end] - origin_key) as f64;
                let dy = (end + 1) as f64 - origin_rank;
                debug_assert!(dx > 0.0, "keys strictly increasing");
                // Key at `end` requires slope in [(dy−eps)/dx, (dy+eps)/dx].
                let need_lo = (dy - eps) / dx;
                let need_hi = (dy + eps) / dx;
                let new_lo = lo_slope.max(need_lo);
                let new_hi = hi_slope.min(need_hi);
                if new_lo > new_hi {
                    break; // cone closed: cut the segment here
                }
                lo_slope = new_lo;
                hi_slope = new_hi;
                end += 1;
            }
            let slope = if end - start == 1 {
                0.0
            } else if hi_slope.is_finite() {
                (lo_slope + hi_slope) / 2.0
            } else {
                lo_slope
            };
            segments.push(Segment {
                first_key: origin_key,
                last_key: keys[end - 1],
                slope,
                intercept: origin_rank,
                start,
                len: end - start,
            });
            start = end;
        }
        Ok(segments)
    }

    /// Number of segments — the memory-footprint proxy the attack inflates.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The configured error bound.
    pub fn epsilon(&self) -> usize {
        self.epsilon
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` iff the index is empty (unreachable for built indexes).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Index of the segment responsible for `key` (last segment whose
    /// `first_key ≤ key`, or `0`).
    fn segment_index_for(&self, key: Key) -> usize {
        match self.segments.binary_search_by(|s| s.first_key.cmp(&key)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// The segment responsible for `key`.
    pub fn segment_for(&self, key: Key) -> &Segment {
        &self.segments[self.segment_index_for(key)]
    }

    /// Predicted global 0-based position of `key`.
    pub fn predict_pos(&self, key: Key) -> usize {
        self.segment_for(key).predict_pos(key, self.keys.len())
    }

    /// Lookup served by a known segment: local model prediction, then
    /// `epsilon`-bounded branchless search. Member keys are in-window by
    /// the build-time bound; absent keys predicted out of bound fall back
    /// to galloping so a miss is always a proven global absence.
    fn lookup_in_segment(&self, seg: usize, key: Key) -> Lookup {
        let guess = self.segments[seg].predict_pos(key, self.keys.len());
        bounded_search_with_fallback(&self.keys, key, guess, self.epsilon + 1).into()
    }

    /// Full lookup: segment route, local model, `epsilon`-bounded binary
    /// search. Membership hits are guaranteed by the build-time bound.
    pub fn lookup(&self, key: Key) -> Lookup {
        self.lookup_in_segment(self.segment_index_for(key), key)
    }

    /// Sorted-batch lookup into a reused buffer: probes are swept in key
    /// order, so segment routing advances a cursor monotonically (no
    /// per-probe binary search over segments) and the bounded windows
    /// stream through the key array. Each probe is served by
    /// [`PlaIndex::lookup`]'s own last-mile step; results return in probe
    /// order and are identical to it per probe by construction.
    pub fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        let mut seg = 0usize;
        crate::index::sorted_batch_into(&self.scratch, keys, out, |k| {
            // Monotone `segment_index_for`: last segment with
            // `first_key ≤ k`, galloping forward from the cursor.
            seg = crate::search::monotone_route_by(&self.segments, seg, k, |s| s.first_key);
            self.lookup_in_segment(seg, k)
        });
    }

    /// Largest prediction error over the training keys (must be ≤
    /// `epsilon + 1` rounding slack; exposed for tests and diagnostics).
    /// Precomputed at build time; `O(1)`.
    pub fn max_training_error(&self) -> usize {
        self.max_train_err
    }

    /// Recomputes [`PlaIndex::max_training_error`] from scratch through
    /// per-key segment routing — the reference implementation backing the
    /// stored value (tests pin stored ≡ recomputed).
    pub fn max_training_error_recomputed(&self) -> usize {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &k)| self.predict_pos(k).abs_diff(i))
            .max()
            .unwrap_or(0)
    }

    /// Recomputes the training MSE from scratch through per-key segment
    /// routing — the reference implementation backing the stored
    /// [`LearnedIndex::loss`] value.
    pub fn loss_recomputed(&self) -> f64 {
        if self.keys.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let e = self.predict_pos(k).abs_diff(i) as f64;
                e * e
            })
            .sum();
        sum / self.keys.len() as f64
    }
}

impl LearnedIndex for PlaIndex {
    fn lookup(&self, key: Key) -> Lookup {
        PlaIndex::lookup(self, key)
    }

    fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        PlaIndex::lookup_batch_into(self, keys, out)
    }

    /// Mean squared prediction error over the training keys. Bounded by
    /// `epsilon²` at build time — poisoning a PLA shows up in
    /// [`LearnedIndex::memory_bytes`] (segment count), not here.
    /// Precomputed during the build's streaming stats sweep; `O(1)`.
    fn loss(&self) -> f64 {
        self.training_loss
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.segments.len() * std::mem::size_of::<Segment>()
            + self.keys.len() * std::mem::size_of::<Key>()
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    #[test]
    fn rejects_zero_epsilon() {
        let ks = uniform(10, 2);
        assert!(PlaIndex::build(&ks, 0).is_err());
    }

    #[test]
    fn linear_data_needs_one_segment() {
        let ks = uniform(10_000, 7);
        let pla = PlaIndex::build(&ks, 8).unwrap();
        assert_eq!(pla.num_segments(), 1);
    }

    #[test]
    fn all_keys_found_within_epsilon() {
        for eps in [1usize, 4, 16, 64] {
            let ks = KeySet::from_keys((1..3000u64).map(|i| i * i / 7 + i).collect()).unwrap();
            let pla = PlaIndex::build(&ks, eps).unwrap();
            assert!(pla.max_training_error() <= eps + 1, "eps {eps}");
            for (i, &k) in ks.keys().iter().enumerate().step_by(29) {
                assert_eq!(pla.lookup(k).pos, Some(i), "eps {eps} key {k}");
            }
        }
    }

    #[test]
    fn absent_keys_return_none() {
        let ks = uniform(500, 10);
        let pla = PlaIndex::build(&ks, 4).unwrap();
        for k in [1u64, 5, 4999, 10_000] {
            assert_eq!(pla.lookup(k).pos, None, "key {k}");
        }
    }

    #[test]
    fn smaller_epsilon_more_segments() {
        let ks = KeySet::from_keys((1..5000u64).map(|i| i * i).collect()).unwrap();
        let tight = PlaIndex::build(&ks, 2).unwrap().num_segments();
        let loose = PlaIndex::build(&ks, 64).unwrap().num_segments();
        assert!(tight > loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn segments_tile_the_keyset() {
        let ks = KeySet::from_keys((1..2000u64).map(|i| i * 3 + (i % 7)).collect()).unwrap();
        let pla = PlaIndex::build(&ks, 4).unwrap();
        let mut expected_start = 0usize;
        for s in pla.segments() {
            assert_eq!(s.start, expected_start);
            assert_eq!(s.first_key, ks.keys()[s.start]);
            assert_eq!(s.last_key, ks.keys()[s.start + s.len - 1]);
            expected_start += s.len;
        }
        assert_eq!(expected_start, ks.len());
    }

    #[test]
    fn poisoning_inflates_segment_count() {
        // The PLA analogue of the paper's attack effect: a poisoned CDF
        // (clustered insertions) forces more cuts at the same epsilon.
        let ks = uniform(2_000, 11);
        let clean_segments = PlaIndex::build(&ks, 4).unwrap().num_segments();

        // Insert a dense poison clump mid-domain.
        let mut poisoned = ks.clone();
        let base = ks.keys()[1000] + 1;
        for j in 0..200u64 {
            let k = base + j;
            if !poisoned.contains(k) {
                let _ = poisoned.insert(k);
            }
        }
        let poisoned_segments = PlaIndex::build(&poisoned, 4).unwrap().num_segments();
        assert!(
            poisoned_segments > clean_segments,
            "poisoning should force more segments: {poisoned_segments} vs {clean_segments}"
        );
    }

    #[test]
    fn single_key_segment_edge_case() {
        let ks = KeySet::from_keys(vec![5]).unwrap();
        let pla = PlaIndex::build(&ks, 2).unwrap();
        assert_eq!(pla.num_segments(), 1);
        assert_eq!(pla.lookup(5).pos, Some(0));
    }

    #[test]
    fn stored_training_stats_match_recomputation_and_reference_build() {
        for keys in [
            (1..3500u64).map(|i| i * i / 7 + i).collect::<Vec<_>>(),
            (0..2000u64).map(|i| i * 11).collect::<Vec<_>>(),
            vec![5u64],
        ] {
            let ks = KeySet::from_keys(keys).unwrap();
            for eps in [1usize, 8, 32] {
                let pla = PlaIndex::build(&ks, eps).unwrap();
                assert_eq!(
                    LearnedIndex::loss(&pla).to_bits(),
                    pla.loss_recomputed().to_bits(),
                    "eps {eps}"
                );
                assert_eq!(
                    pla.max_training_error(),
                    pla.max_training_error_recomputed()
                );
                let reference = PlaIndex::build_reference(&ks, eps).unwrap();
                assert_eq!(pla.segments(), reference.segments());
                assert_eq!(
                    LearnedIndex::loss(&pla).to_bits(),
                    LearnedIndex::loss(&reference).to_bits()
                );
                assert_eq!(pla.max_training_error(), reference.max_training_error());
            }
        }
    }

    #[test]
    fn sorted_batch_matches_single_lookup_exactly() {
        let ks = KeySet::from_keys((1..2500u64).map(|i| i * i / 9 + i).collect()).unwrap();
        let pla = PlaIndex::build(&ks, 8).unwrap();
        assert!(pla.num_segments() > 1);
        let mut probes: Vec<Key> = ks.keys().iter().rev().step_by(5).copied().collect();
        probes.extend([0, 2, ks.max_key() + 1, Key::MAX]);
        probes.push(probes[0]);
        let mut out = Vec::new();
        pla.lookup_batch_into(&probes, &mut out);
        assert_eq!(out.len(), probes.len());
        for (&k, &got) in probes.iter().zip(&out) {
            assert_eq!(got, pla.lookup(k), "key {k}");
        }
        assert_eq!(pla.scratch.idle(), 1);
    }

    #[test]
    fn member_lookup_cost_stays_within_epsilon_window() {
        let ks = KeySet::from_keys((1..4000u64).map(|i| i * i / 3).collect()).unwrap();
        let eps = 16usize;
        let pla = PlaIndex::build(&ks, eps).unwrap();
        let bound = crate::search::lane_window_cost_bound(2 * (eps + 1) + 1);
        for (i, &k) in ks.keys().iter().enumerate().step_by(37) {
            let hit = pla.lookup(k);
            assert_eq!(hit.pos, Some(i));
            assert!(hit.cost <= bound, "cost {} > {bound}", hit.cost);
        }
    }
}
