//! Last-mile search: locating a key near a model's predicted position.
//!
//! A learned index predicts an approximate position and then performs a
//! local search around it ("if the prediction is not accurate then a local
//! search around the predicted location discovers the record",
//! Section III-A). We implement the standard *exponential (galloping)
//! search* outward from the prediction followed by binary search on the
//! bracketed range, and count key comparisons so experiments can report the
//! search cost that poisoning inflates.
//!
//! The hot path is [`bounded_search_with_fallback`], the only window
//! search any index serves through — per-key lookups call it once, and
//! batch lookups call it once per probe while sweeping the probes in
//! sorted order. Indexes that store a per-model maximum training error
//! (`max_err`) search only the `±(max_err + 1)` window around the
//! prediction, and gallop outward
//! *only* when a miss lands on a window edge (out-of-bound prediction —
//! absent keys or root-routing mispredicts). The window probe is the
//! *lane kernel*: branchless binary halving while the candidate range
//! exceeds two lanes, then a count of the `≤ key` prefix over the final
//! window in explicit [`LANE`]-wide chunks the compiler autovectorizes.
//! Every function reports `comparisons` as exactly the number of key
//! comparisons performed — lane work is **counted, not estimated** (a
//! processed lane charges one comparison per element) — so `Lookup.cost`
//! keeps the paper's comparison-count semantics no matter which search
//! strategy answered. The unit tests pin the lane kernel against an
//! element-at-a-time scalar oracle with bit-identical results *and*
//! comparison counts for every window width.

// lis-analysis: zone(zero-alloc)
// Every routine in this file runs per-probe inside the serve loop; the
// zero-alloc gate (crates/server/tests/zero_alloc.rs) counts on none of
// them touching the allocator.

use crate::keys::Key;

/// Outcome of a last-mile search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchResult {
    /// Index of the key in the sorted slice, if found.
    pub pos: Option<usize>,
    /// Number of key comparisons performed.
    pub comparisons: usize,
}

/// Exponential + binary search for `key` in sorted `keys`, starting from
/// `guess` (clamped). Returns the index and the comparison count.
///
/// Complexity is `O(log d)` where `d = |guess − true_pos|`, so the cost of a
/// lookup is exactly the logarithm of the model's prediction error — the
/// mechanism by which the paper's Ratio-Loss increase translates into a
/// lookup-time slowdown.
pub fn exponential_search(keys: &[Key], key: Key, guess: usize) -> SearchResult {
    if keys.is_empty() {
        return SearchResult {
            pos: None,
            comparisons: 0,
        };
    }
    let guess = guess.min(keys.len() - 1);
    let mut comparisons = 1usize;
    if keys[guess] == key {
        return SearchResult {
            pos: Some(guess),
            comparisons,
        };
    }

    // Gallop in the direction of the key.
    let (lo, hi): (usize, usize);
    if keys[guess] < key {
        // `keys[guess] < key` with nothing to the right: proven absent.
        if guess == keys.len() - 1 {
            return SearchResult {
                pos: None,
                comparisons,
            };
        }
        let mut next_lo = guess + 1;
        let mut step = 1usize;
        let found_hi: usize;
        loop {
            // Clamp the probe instead of breaking early: comparing the
            // clamped probe either closes the bracket at a *proven* bound
            // or proves the key exceeds the largest key — the old
            // unproven `keys.len() - 1` widening paid a full binary
            // search for every beyond-max miss.
            let probe = guess.saturating_add(step).min(keys.len() - 1);
            comparisons += 1;
            if keys[probe] >= key {
                found_hi = probe;
                break;
            }
            if probe == keys.len() - 1 {
                // The largest key compares below `key`: absent, and the
                // bracket is empty.
                return SearchResult {
                    pos: None,
                    comparisons,
                };
            }
            next_lo = probe + 1;
            step <<= 1;
        }
        lo = next_lo;
        hi = found_hi;
    } else {
        let mut next_hi = guess.saturating_sub(1);
        let mut step = 1usize;
        let found_lo: usize;
        loop {
            if step > guess {
                found_lo = 0;
                break;
            }
            let probe = guess - step;
            comparisons += 1;
            if keys[probe] <= key {
                found_lo = probe;
                break;
            }
            if probe == 0 {
                found_lo = 0;
                break;
            }
            next_hi = probe - 1;
            step <<= 1;
        }
        lo = found_lo;
        hi = next_hi;
        if hi < lo {
            return SearchResult {
                pos: None,
                comparisons,
            };
        }
    }

    // Binary search on [lo, hi].
    let (pos, cmp) = binary_search_counted(&keys[lo..=hi], key);
    SearchResult {
        pos: pos.map(|p| p + lo),
        comparisons: comparisons + cmp,
    }
}

/// Plain binary search with a comparison counter, used both by the last-mile
/// search and by the B+-tree baseline.
pub fn binary_search_counted(keys: &[Key], key: Key) -> (Option<usize>, usize) {
    let mut lo = 0usize;
    let mut hi = keys.len();
    let mut comparisons = 0usize;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        comparisons += 1;
        match keys[mid].cmp(&key) {
            std::cmp::Ordering::Equal => return (Some(mid), comparisons),
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    (None, comparisons)
}

/// Lane width of the vectorized last-mile kernel: the final window is
/// compared in chunks of this many keys per step (8 × u64 = one 64-byte
/// cache line, two AVX2 / one AVX-512 vector).
pub const LANE: usize = 8;

/// Candidate-range size at which the halving descent hands over to the
/// lane scan. Two lanes, so the tail holds at least one full [`LANE`]
/// chunk whenever the window was bigger than a lane to begin with.
const LANE_TAIL: usize = 2 * LANE;

/// Lane-chunked lower bound: branchless halving while the candidate range
/// exceeds [`LANE_TAIL`], then a count of the `≤ key` prefix over the
/// remaining window in explicit [`LANE`]-wide chunks (plus a scalar
/// remainder). Returns the index of the last element `≤ key`, or `0`
/// when every element exceeds `key`; the comparison count is `descent
/// steps + tail length`: every element of a processed lane is charged,
/// honestly, as one comparison. The count is data-independent for a given
/// window length ([`lane_window_cost`] computes it in closed form).
fn lane_lower_bound(keys: &[Key], key: Key) -> (usize, usize) {
    let mut base = 0usize;
    let mut size = keys.len();
    let mut comparisons = 0usize;
    while size > LANE_TAIL {
        let half = size / 2;
        comparisons += 1;
        base += usize::from(keys[base + half] <= key) * half;
        size -= half;
    }
    let window = &keys[base..base + size];
    let mut le = 0usize;
    let mut chunks = window.chunks_exact(LANE);
    for chunk in &mut chunks {
        // Fixed-width, branch-free reduction over one lane: the shape the
        // autovectorizer lowers to a packed compare + horizontal add.
        let mut lanes = 0usize;
        for &x in chunk {
            lanes += usize::from(x <= key);
        }
        le += lanes;
    }
    for &x in chunks.remainder() {
        le += usize::from(x <= key);
    }
    comparisons += size;
    // Sortedness makes the `≤ key` window elements a prefix; elements
    // before `base` are `≤ key` whenever `base > 0` (each descent step
    // only advances onto a `≤ key` element), so `le == 0` implies
    // `base == 0`: every element exceeds `key` and the lower bound pins
    // at the front.
    (base + le.saturating_sub(1), comparisons)
}

/// The exact, data-independent comparison count of an in-window probe of
/// `window_len` keys under the lane kernel: halving-descent steps, plus
/// the final tail length, plus the one concluding three-way comparison.
/// Cost-bound tests use this where they previously used `⌈log₂ w⌉ + 1`.
pub fn lane_window_cost(window_len: usize) -> usize {
    if window_len == 0 {
        return 0;
    }
    let mut size = window_len;
    let mut steps = 0usize;
    while size > LANE_TAIL {
        size -= size / 2;
        steps += 1;
    }
    steps + size + 1
}

/// The worst in-window probe cost over every window length up to
/// `max_len`. [`lane_window_cost`] is *not* monotone in the window length
/// (a shorter window can stop the descent earlier and pay a longer tail),
/// so cost-bound tests over windows that clamp at the array edges bound
/// with this instead.
pub fn lane_window_cost_bound(max_len: usize) -> usize {
    (1..=max_len).map(lane_window_cost).max().unwrap_or(0)
}

/// The lane-kernel window probe behind [`bounded_search_with_fallback`]:
/// lane lower bound plus one final three-way comparison. Requires a
/// non-empty slice.
fn lane_probe(keys: &[Key], key: Key) -> (usize, std::cmp::Ordering, usize) {
    let (base, comparisons) = lane_lower_bound(keys, key);
    (base, keys[base].cmp(&key), comparisons + 1)
}

/// Former setter of a sorted-batch pipeline depth; the batch path is now
/// one sorted sweep with nothing to tune, so this does nothing and returns
/// `0`. The `benchmark/` package's `core.lookup.depth1_*` probes are its
/// only caller; the next benchmark revision drops it together with them.
#[doc(hidden)]
pub fn set_pipeline_depth(_depth: usize) -> usize {
    0
}

/// Monotone routing step for sorted-batch sweeps — the cursor the RMI's
/// oracle routing and the PLA's segment routing advance before handing
/// each probe to their per-key last-mile helper: the largest index `i`
/// with `bound(items[i]) ≤ key`, searched *forward* from `from` (`0` when
/// every bound exceeds `key`). Requires `bound(items[from]) ≤ key` or
/// `from == 0` — exactly the invariant a cursor over ascending probes
/// maintains. Gallops then binary-searches the bracket, so one step costs
/// `O(log gap)`: dense batches advance in a probe or two, sparse batches
/// degrade gracefully to binary-search cost instead of scanning every
/// entry in between.
pub(crate) fn monotone_route_by<T>(
    items: &[T],
    from: usize,
    key: Key,
    bound: impl Fn(&T) -> Key,
) -> usize {
    let n = items.len();
    let mut lo = from;
    let mut step = 1usize;
    loop {
        let probe = lo.saturating_add(step);
        if probe >= n || bound(&items[probe]) > key {
            break;
        }
        lo = probe;
        step <<= 1;
    }
    let hi = lo.saturating_add(step).min(n);
    let within = items[lo..hi].partition_point(|item| bound(item) <= key);
    lo + within.saturating_sub(1)
}

/// Error-bounded last-mile search: lane-kernel search on the window
/// `[center − radius, center + radius]` (clamped), falling back to
/// [`exponential_search`] only when the miss is *out of bound* — the key
/// compares beyond the window edge, so the window provably cannot decide
/// absence. For member keys whose prediction error is within `radius`
/// (the invariant `max_err` storage provides) the fallback never fires;
/// for in-window misses absence is proven without it.
///
/// Cost semantics are unchanged in kind: `comparisons` is exactly the
/// number of key comparisons performed — descent steps, every compared
/// lane element, and any fallback galloping. In-window probes cost
/// exactly [`lane_window_cost`] of the clamped window length.
pub fn bounded_search_with_fallback(
    keys: &[Key],
    key: Key,
    center: usize,
    radius: usize,
) -> SearchResult {
    if keys.is_empty() {
        return SearchResult {
            pos: None,
            comparisons: 0,
        };
    }
    let center = center.min(keys.len() - 1);
    let lo = center.saturating_sub(radius);
    let hi = center.saturating_add(radius).min(keys.len() - 1);
    let window = &keys[lo..=hi];
    let (base, ordering, comparisons) = lane_probe(window, key);
    match ordering {
        std::cmp::Ordering::Equal => SearchResult {
            pos: Some(lo + base),
            comparisons,
        },
        // `key` exceeds the window's lower bound element. If that element
        // is the window's last and the array continues, the key may lie
        // beyond the window: gallop right from the edge. Otherwise the
        // next window element exceeds `key` and absence is proven.
        std::cmp::Ordering::Less => {
            if base == window.len() - 1 && hi + 1 < keys.len() {
                let fb = exponential_search(keys, key, hi);
                SearchResult {
                    pos: fb.pos,
                    comparisons: comparisons + fb.comparisons,
                }
            } else {
                SearchResult {
                    pos: None,
                    comparisons,
                }
            }
        }
        // Every window element exceeds `key` (lower-bound property ⇒
        // `base == 0`): out of bound on the left unless the window starts
        // the array.
        std::cmp::Ordering::Greater => {
            if lo > 0 {
                let fb = exponential_search(keys, key, lo);
                SearchResult {
                    pos: fb.pos,
                    comparisons: comparisons + fb.comparisons,
                }
            } else {
                SearchResult {
                    pos: None,
                    comparisons,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<Key> {
        (0..1000u64).map(|i| i * 3).collect()
    }

    #[test]
    fn finds_with_exact_guess() {
        let ks = keys();
        let r = exponential_search(&ks, 300, 100);
        assert_eq!(r.pos, Some(100));
        assert_eq!(r.comparisons, 1);
    }

    #[test]
    fn finds_with_far_guess_right() {
        let ks = keys();
        let r = exponential_search(&ks, 2997, 0); // true pos 999
        assert_eq!(r.pos, Some(999));
        assert!(r.comparisons <= 2 * (1000f64.log2() as usize) + 4);
    }

    #[test]
    fn finds_with_far_guess_left() {
        let ks = keys();
        let r = exponential_search(&ks, 0, 999);
        assert_eq!(r.pos, Some(0));
    }

    #[test]
    fn absent_key_returns_none() {
        let ks = keys();
        for guess in [0usize, 500, 999] {
            let r = exponential_search(&ks, 301, guess); // 301 not a multiple of 3
            assert_eq!(r.pos, None, "guess={guess}");
        }
    }

    #[test]
    fn all_keys_found_from_any_guess() {
        let ks = keys();
        for (i, &k) in ks.iter().enumerate().step_by(37) {
            for guess in [0usize, i / 2, i, (i + 500).min(999)] {
                let r = exponential_search(&ks, k, guess);
                assert_eq!(r.pos, Some(i), "key {k} guess {guess}");
            }
        }
    }

    #[test]
    fn comparisons_grow_with_prediction_error() {
        let ks = keys();
        let near = exponential_search(&ks, ks[500], 498).comparisons;
        let far = exponential_search(&ks, ks[500], 0).comparisons;
        assert!(far > near, "far={} near={}", far, near);
    }

    #[test]
    fn empty_slice() {
        let r = exponential_search(&[], 5, 0);
        assert_eq!(r.pos, None);
        assert_eq!(r.comparisons, 0);
    }

    #[test]
    fn binary_search_counted_matches_std() {
        let ks = keys();
        for k in [0u64, 3, 1500, 2997, 5, 10_000] {
            let (pos, _) = binary_search_counted(&ks, k);
            assert_eq!(pos, ks.binary_search(&k).ok());
        }
    }

    #[test]
    fn beyond_max_gallop_proves_absence_cheaply() {
        // Regression test for the upward-gallop fallback: a key beyond the
        // largest element used to widen the bracket to `keys.len() - 1`
        // and binary-search a range already proven empty. The tightened
        // gallop returns as soon as the largest key compares below the
        // probe: comparison cost is the gallop alone (≤ log₂(n) + 2),
        // with no binary-search tail.
        let ks = keys(); // 1000 keys, max 2997
        let r = exponential_search(&ks, 5_000, 0);
        assert_eq!(r.pos, None);
        let gallop_only = (1000f64.log2().ceil() as usize) + 2;
        assert!(
            r.comparisons <= gallop_only,
            "beyond-max miss should cost only the gallop, got {}",
            r.comparisons
        );
        // From the last slot the very first comparison settles it.
        let r = exponential_search(&ks, 5_000, 999);
        assert_eq!(r.pos, None);
        assert_eq!(r.comparisons, 1);
    }

    #[test]
    fn tightened_gallop_still_finds_every_key() {
        let ks = keys();
        for (i, &k) in ks.iter().enumerate() {
            for guess in [0usize, i.saturating_sub(1), i, (i + 37).min(999), 999] {
                let r = exponential_search(&ks, k, guess);
                assert_eq!(r.pos, Some(i), "key {k} guess {guess}");
            }
        }
    }

    #[test]
    fn bounded_fallback_finds_members_within_radius_without_galloping() {
        let ks = keys();
        for (i, &k) in ks.iter().enumerate().step_by(13) {
            for radius in [1usize, 4, 16] {
                let r = bounded_search_with_fallback(&ks, k, i, radius);
                assert_eq!(r.pos, Some(i), "key {k} radius {radius}");
                // The window clamps at the array edges; an in-window hit
                // costs exactly the lane cost of the clamped window.
                let window =
                    i.saturating_add(radius).min(ks.len() - 1) - i.saturating_sub(radius) + 1;
                assert_eq!(
                    r.comparisons,
                    lane_window_cost(window),
                    "in-window hit cost off for key {k} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn bounded_fallback_recovers_out_of_window_keys() {
        let ks = keys();
        // Prediction off by far more than the radius, both directions.
        let r = bounded_search_with_fallback(&ks, ks[900], 10, 4);
        assert_eq!(r.pos, Some(900));
        let r = bounded_search_with_fallback(&ks, ks[10], 900, 4);
        assert_eq!(r.pos, Some(10));
        // Window pinned at the array edges: no fallback possible.
        let r = bounded_search_with_fallback(&ks, 1, 0, 2);
        assert_eq!(r.pos, None);
        let r = bounded_search_with_fallback(&ks, 5_000, 999, 2);
        assert_eq!(r.pos, None);
    }

    #[test]
    fn bounded_fallback_proves_in_window_absence_without_galloping() {
        let ks = keys(); // multiples of 3
                         // 301 sits between ks[100] = 300 and ks[101] = 303: a window
                         // containing both proves absence at window cost.
        let r = bounded_search_with_fallback(&ks, 301, 100, 4);
        assert_eq!(r.pos, None);
        let bound = lane_window_cost(9);
        assert!(r.comparisons <= bound, "cost {}", r.comparisons);
    }

    #[test]
    fn bounded_fallback_agrees_with_exponential_everywhere() {
        let ks = keys();
        let probes: Vec<Key> = (0..3_100u64).collect();
        for &k in &probes {
            let expected = ks.binary_search(&k).ok();
            for center in [0usize, 250, 999] {
                for radius in [0usize, 1, 8, 2_000] {
                    let r = bounded_search_with_fallback(&ks, k, center, radius);
                    assert_eq!(r.pos, expected, "key {k} center {center} radius {radius}");
                }
            }
        }
    }

    #[test]
    fn monotone_route_matches_global_lower_bound_from_any_cursor() {
        let bounds: Vec<Key> = (0..500u64).map(|i| i * 10 + 5).collect();
        let global =
            |key: Key| -> usize { bounds.partition_point(|&b| b <= key).saturating_sub(1) };
        for key in [0u64, 4, 5, 6, 123, 2_500, 4_994, 4_995, 9_999] {
            let expected = global(key);
            // Any valid cursor (bound ≤ key, or 0) must reach the same
            // index the global search finds.
            for from in [0usize, expected / 2, expected] {
                if from > 0 && bounds[from] > key {
                    continue;
                }
                let got = monotone_route_by(&bounds, from, key, |&b| b);
                assert_eq!(got, expected, "key {key} from {from}");
            }
        }
        // A full ascending sweep with a running cursor equals per-key
        // global routing everywhere.
        let mut cursor = 0usize;
        for key in 0..5_200u64 {
            cursor = monotone_route_by(&bounds, cursor, key, |&b| b);
            assert_eq!(cursor, global(key), "sweep key {key}");
        }
    }

    /// Scalar oracle for [`lane_lower_bound`]: the same halving
    /// descent and the same full-tail counting, one element at a time with no
    /// chunk structure. Identical result and identical comparison count for
    /// every input — the executable oracle the `vectorized ≡ scalar` identity
    /// tests compare against.
    fn lane_lower_bound_scalar(keys: &[Key], key: Key) -> (usize, usize) {
        let mut base = 0usize;
        let mut size = keys.len();
        let mut comparisons = 0usize;
        while size > LANE_TAIL {
            let half = size / 2;
            comparisons += 1;
            base += usize::from(keys[base + half] <= key) * half;
            size -= half;
        }
        let mut le = 0usize;
        for &x in &keys[base..base + size] {
            le += usize::from(x <= key);
        }
        comparisons += size;
        (base + le.saturating_sub(1), comparisons)
    }

    /// Rank oracle for [`lane_lower_bound`]: plain branchless halving down
    /// to one element — index of the *last* element `≤ key`, or `0` when
    /// every element exceeds `key`.
    fn branchless_lower_bound(keys: &[Key], key: Key) -> usize {
        let mut base = 0usize;
        let mut size = keys.len();
        while size > 1 {
            let half = size / 2;
            base += usize::from(keys[base + half] <= key) * half;
            size -= half;
        }
        base
    }

    #[test]
    fn lane_lower_bound_matches_branchless_everywhere() {
        // The lane kernel and the pure branchless descent must agree on
        // the rank for every window shape: shorter than one lane, exactly
        // one lane, straddling the descent threshold, and large.
        let ks = keys();
        for width in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 1000] {
            let w = &ks[..width];
            for k in [
                0u64,
                1,
                3,
                ks[width / 2],
                ks[width - 1],
                ks[width - 1] + 1,
                10_000,
            ] {
                let (lane, _) = lane_lower_bound(w, k);
                let (scalar, _) = lane_lower_bound_scalar(w, k);
                let branchless = branchless_lower_bound(w, k);
                assert_eq!(lane, branchless, "width {width} key {k}");
                assert_eq!(scalar, branchless, "width {width} key {k}");
            }
        }
    }

    #[test]
    fn lane_and_scalar_kernels_are_cost_identical() {
        let ks = keys();
        for width in [1usize, 5, 8, 13, 16, 21, 64, 511] {
            let w = &ks[..width];
            for k in [0u64, 2, ks[width / 3], ks[width - 1], 9_999] {
                let lane = lane_lower_bound(w, k);
                let scalar = lane_lower_bound_scalar(w, k);
                assert_eq!(lane, scalar, "width {width} key {k}");
            }
        }
    }

    #[test]
    fn lane_window_cost_is_exact_and_data_independent() {
        let ks = keys();
        for width in [1usize, 2, 7, 8, 9, 16, 17, 33, 100, 257, 1000] {
            let expected = lane_window_cost(width);
            let mut counts = std::collections::BTreeSet::new();
            for k in [0u64, 1, ks[width / 2], ks[width - 1], 10_000] {
                // An in-window probe at full radius never gallops: cost
                // is exactly the closed form.
                let r = bounded_search_with_fallback(&ks[..width], k, width / 2, width);
                counts.insert(r.comparisons);
                assert_eq!(r.comparisons, expected, "width {width} key {k}");
            }
            assert_eq!(counts.len(), 1, "width {width} cost varied with data");
        }
        assert_eq!(lane_window_cost(0), 0);
    }

    #[test]
    fn lane_kernel_degenerate_shapes() {
        // Single-element windows (radius 0), windows shorter than a lane,
        // and duplicate-heavy slices.
        let ks = keys();
        for (i, &k) in ks.iter().enumerate().step_by(101) {
            let r = bounded_search_with_fallback(&ks, k, i, 0);
            assert_eq!(r.pos, Some(i), "radius-0 exact guess");
            assert_eq!(r.comparisons, lane_window_cost(1));
        }
        let tiny: Vec<Key> = (0..5u64).map(|i| i * 2).collect();
        for k in 0..12u64 {
            let r = bounded_search_with_fallback(&tiny, k, 2, 10);
            assert_eq!(r.pos, tiny.binary_search(&k).ok(), "tiny key {k}");
        }
        let dup: Vec<Key> = [3u64; 20]
            .into_iter()
            .chain([5u64; 20])
            .chain([9u64; 3])
            .collect();
        for k in [0u64, 3, 4, 5, 7, 9, 10] {
            let (lane, lc) = lane_lower_bound(&dup, k);
            let branchless = branchless_lower_bound(&dup, k);
            let (scalar, sc) = lane_lower_bound_scalar(&dup, k);
            assert_eq!(lane, branchless, "dup key {k}");
            assert_eq!((lane, lc), (scalar, sc), "dup key {k}");
        }
    }

    #[test]
    fn bounded_fallback_empty_and_overflowing_radius() {
        assert_eq!(bounded_search_with_fallback(&[], 5, 0, 3).pos, None);
        let ks = keys();
        // A radius near usize::MAX must clamp, not overflow.
        let r = bounded_search_with_fallback(&ks, ks[123], 500, usize::MAX);
        assert_eq!(r.pos, Some(123));
    }
}
