//! Online admission control: the batch filters of [`crate::outlier`]
//! recast as streaming screens on the server's write queue.
//!
//! The batch defenses see a finished (already poisoned) keyset and try to
//! claw keys back out. Admission control moves the same statistics to the
//! *write path*: every candidate insert is screened against a **trusted
//! bootstrap** snapshot (the keyset the server started from, assumed
//! clean) before it ever reaches the index. That flips the asymmetry of
//! Section VI — the defender's baseline statistics are computed before the
//! attacker's first write, so the attack cannot shift the envelope it is
//! judged against.
//!
//! Three screens, composable via
//! [`AdmissionChain`](lis_server::AdmissionChain):
//!
//! * [`SourceRateLimit`] — a per-source token bucket over the write
//!   *sequence* (not wall clock, so replays are deterministic): a single
//!   firehose identity gets throttled to its fair share while a fleet of
//!   benign writers passes untouched;
//! * [`DensityScreen`] — the streaming counterpart of
//!   [`local_density_filter`](crate::outlier::local_density_filter):
//!   rejects an insert whose would-be neighbourhood in the *current*
//!   keyset is abnormally crowded relative to the bootstrap's average gap.
//!   Algorithm-style poison concentrates keys inside chosen gaps, so the
//!   crowd it builds raises its own rejection odds with every accepted
//!   key;
//! * [`TrustedFence`] — Tukey fences (see
//!   [`iqr_filter`](crate::outlier::iqr_filter)) frozen at bootstrap time:
//!   the value-envelope mitigation of Section IV-C as a streaming gate.
//!
//! All screens admit every `Remove` — deletions only shrink the structure
//! the attacker is trying to bloat, and benign churn must stay cheap.

use lis_core::keys::{KeySet, KeyView};
use lis_core::stats::quantile_sorted;
use lis_server::{Admission, AdmissionPolicy, WriteOp};
use std::collections::HashMap;

/// Per-source token bucket keyed on the global write sequence number.
///
/// Each admitted-or-screened write advances the sequence by one; a source's
/// bucket refills by `rate` tokens per sequence tick up to `burst`, and an
/// insert spends one token. A source submitting faster than `rate` of the
/// total write stream drains its bucket and gets rejected — exactly the
/// shape of a poisoning campaign, which must land hundreds of writes from
/// one identity to move a model, while each benign writer contributes a
/// trickle.
#[derive(Debug, Clone)]
pub struct SourceRateLimit {
    rate: f64,
    burst: f64,
    seq: u64,
    buckets: HashMap<u64, (u64, f64)>,
}

impl SourceRateLimit {
    /// A limiter granting each source `rate` of the write stream with
    /// headroom for bursts of `burst` writes. `rate` is clamped to
    /// `(0, 1]`; `burst` to at least 1.
    pub fn new(rate: f64, burst: f64) -> Self {
        Self {
            rate: if rate > 0.0 { rate.min(1.0) } else { 1.0 },
            burst: burst.max(1.0),
            seq: 0,
            buckets: HashMap::new(),
        }
    }
}

impl AdmissionPolicy for SourceRateLimit {
    fn name(&self) -> &str {
        "rate-limit"
    }

    fn admit(&mut self, op: &WriteOp, source: u64, _keyset: &dyn KeyView) -> Admission {
        self.seq += 1;
        if matches!(op, WriteOp::Remove(_)) {
            return Admission::Admit;
        }
        let (last, tokens) = self.buckets.entry(source).or_insert((self.seq, self.burst));
        let refill = (self.seq - *last) as f64 * self.rate;
        *tokens = (*tokens + refill).min(self.burst);
        *last = self.seq;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            Admission::Admit
        } else {
            Admission::Reject("rate-limit".into())
        }
    }
}

/// Streaming local-density screen anchored to a trusted bootstrap.
///
/// At construction it freezes the bootstrap keyset's average gap; at
/// admission time it applies two screens against the current
/// authoritative keyset (which includes every previously admitted
/// write, read through the [`KeyView`] the writer hands it), both
/// thresholded at `bootstrap average gap / crowd_factor`:
///
/// 1. **nearest neighbour** — the gap the insert itself creates.
///    Loss-maximal poison hugs a gap endpoint (distance 1 from an
///    existing key); a benign insert lands mid-gap, half an average gap
///    from both sides;
/// 2. **one-sided window density** — the mean gap over the `window`
///    nearest existing keys on each side, judged separately, so a clump
///    built at safe pairwise spacing still trips its crowded flank
///    (a symmetric window would average the signal away against a sparse
///    far side).
#[derive(Debug, Clone)]
pub struct DensityScreen {
    threshold: f64,
    window: usize,
}

impl DensityScreen {
    /// A screen calibrated on the trusted `bootstrap` keyset: the
    /// rejection threshold is `bootstrap average gap / crowd_factor`
    /// (`crowd_factor > 1`; larger is more permissive), examined over a
    /// `window`-key neighbourhood on each side of the insertion point.
    pub fn from_bootstrap(bootstrap: &KeySet, window: usize, crowd_factor: f64) -> Self {
        let keys = bootstrap.keys();
        let n = keys.len();
        let avg_gap = if n > 1 {
            (keys[n - 1] - keys[0]) as f64 / (n - 1) as f64
        } else {
            f64::INFINITY
        };
        Self {
            threshold: avg_gap / crowd_factor.max(1.0),
            window: window.max(1),
        }
    }
}

impl AdmissionPolicy for DensityScreen {
    fn name(&self) -> &str {
        "density-screen"
    }

    fn admit(&mut self, op: &WriteOp, _source: u64, keyset: &dyn KeyView) -> Admission {
        let key = match *op {
            WriteOp::Insert(k) => k,
            WriteOp::Remove(_) => return Admission::Admit,
        };
        if keyset.len() < 2 * self.window + 1 {
            return Admission::Admit;
        }
        // Distance to the `i`-th neighbour on each side, where one exists.
        let flanks = |i: usize| {
            let below = keyset.nth_below(key, i).map(|k| key - k);
            let above = keyset.nth_at_or_above(key, i).map(|k| k - key);
            below.into_iter().chain(above)
        };
        // First screen: the gap the insert itself creates. Loss-maximal
        // poison hugs an existing key (endpoint placement), so its
        // nearest-neighbour distance is tiny; a benign insert lands
        // mid-gap, half an average gap from both sides.
        let nearest = flanks(0).min().unwrap_or(u64::MAX);
        if (nearest as f64) < self.threshold {
            return Admission::Reject("density-screen".into());
        }
        // Second screen: the `window` nearest existing keys on each side,
        // judged separately — catches keys spread at safe pairwise
        // distances that still crowd one flank.
        let window = self.window as f64;
        if flanks(self.window - 1).any(|span| (span as f64 / window) < self.threshold) {
            return Admission::Reject("density-screen".into());
        }
        Admission::Admit
    }
}

/// Tukey fences frozen on a trusted bootstrap: inserts outside
/// `[Q1 − k·IQR, Q3 + k·IQR]` of the bootstrap key values are rejected.
///
/// The in-range attack evades this by design (Section IV-C) — the fence is
/// here to *show* that, and to stop the naive out-of-range variant cold.
#[derive(Debug, Clone)]
pub struct TrustedFence {
    lo: f64,
    hi: f64,
}

impl TrustedFence {
    /// Fences at `k` IQRs beyond the bootstrap quartiles (conventional
    /// `k = 1.5`).
    pub fn from_bootstrap(bootstrap: &KeySet, k: f64) -> Self {
        let vals: Vec<f64> = bootstrap.keys().iter().map(|&v| v as f64).collect();
        let q1 = quantile_sorted(&vals, 0.25);
        let q3 = quantile_sorted(&vals, 0.75);
        let iqr = q3 - q1;
        Self {
            lo: q1 - k * iqr,
            hi: q3 + k * iqr,
        }
    }
}

impl AdmissionPolicy for TrustedFence {
    fn name(&self) -> &str {
        "trusted-fence"
    }

    fn admit(&mut self, op: &WriteOp, _source: u64, _keyset: &dyn KeyView) -> Admission {
        match *op {
            WriteOp::Remove(_) => Admission::Admit,
            WriteOp::Insert(k) => {
                let v = k as f64;
                if v < self.lo || v > self.hi {
                    Admission::Reject("trusted-fence".into())
                } else {
                    Admission::Admit
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    #[test]
    fn rate_limit_throttles_a_firehose_but_not_a_fleet() {
        let ks = uniform(100, 10);
        let mut limiter = SourceRateLimit::new(0.05, 5.0);
        // One source hammering every sequence slot: only the burst plus
        // the trickle refill gets through.
        let admitted = (0..200)
            .filter(|i| {
                limiter
                    .admit(&WriteOp::Insert(10_000 + i), 42, &ks)
                    .eq(&Admission::Admit)
            })
            .count();
        assert!(
            admitted <= 20,
            "firehose should be throttled, admitted {admitted}"
        );
        // A fleet of 16 sources taking turns each stays under its share:
        // everything passes.
        let mut limiter = SourceRateLimit::new(0.08, 5.0);
        let admitted = (0..200u64)
            .filter(|i| {
                limiter
                    .admit(&WriteOp::Insert(20_000 + i), i % 16, &ks)
                    .eq(&Admission::Admit)
            })
            .count();
        assert_eq!(admitted, 200, "rotating benign fleet should pass");
    }

    #[test]
    fn rate_limit_never_blocks_removes() {
        let ks = uniform(10, 10);
        let mut limiter = SourceRateLimit::new(0.01, 1.0);
        for i in 0..50 {
            assert_eq!(
                limiter.admit(&WriteOp::Remove(i * 10), 7, &ks),
                Admission::Admit
            );
        }
    }

    #[test]
    fn density_screen_rejects_a_poison_clump_and_passes_midgap_inserts() {
        let bootstrap = uniform(500, 100); // avg gap 100
        let mut screen = DensityScreen::from_bootstrap(&bootstrap, 3, 4.0);
        let mut current = bootstrap.clone();
        // Poison crams consecutive keys against the member at 25_000.
        let mut rejected = 0;
        for k in 25_001..25_030 {
            match screen.admit(&WriteOp::Insert(k), 0, &current) {
                Admission::Admit => current.insert(k).unwrap(),
                Admission::Reject(_) => rejected += 1,
            }
        }
        assert!(
            rejected >= 20,
            "dense clump should trip the screen, only {rejected} rejected"
        );
        // A benign mid-gap insert far from the clump sails through.
        assert_eq!(
            screen.admit(&WriteOp::Insert(40_050), 0, &current),
            Admission::Admit
        );
    }

    #[test]
    fn trusted_fence_blocks_out_of_envelope_inserts_only() {
        let bootstrap = uniform(100, 10); // values 0..=990
        let mut fence = TrustedFence::from_bootstrap(&bootstrap, 1.5);
        assert_eq!(
            fence.admit(&WriteOp::Insert(500), 0, &bootstrap),
            Admission::Admit
        );
        assert_eq!(
            fence.admit(&WriteOp::Insert(5_000), 0, &bootstrap),
            Admission::Reject("trusted-fence".into())
        );
        assert_eq!(
            fence.admit(&WriteOp::Remove(5_000), 0, &bootstrap),
            Admission::Admit
        );
    }
}
