//! The epoch-managed index slot: readers always serve one consistent
//! snapshot, writers publish new epochs by swapping an `Arc`.
//!
//! The slot holds the currently served `Arc<T>` plus a monotonically
//! increasing epoch counter. Workers cache the `Arc` and re-read the slot
//! *only when the counter changes*, so the steady-state lookup hot path
//! takes no lock at all — the mutex here guards nothing but the O(1)
//! pointer swap and is never held across index work. Readers therefore
//! never block on writers: a rebuild happens entirely on the writer thread
//! against the authoritative keyset, and publication is one swap.
//!
//! The counter is bumped *inside* the swap's critical section: a worker
//! that observes the new epoch and reloads must acquire the same mutex,
//! which orders its read after the writer's store. A worker that still
//! sees the old epoch serves at most one more batch from the previous
//! snapshot — snapshots are immutable, so every batch is internally
//! consistent either way.
//!
//! The slot is generic over the snapshot type: the server instantiates it
//! with [`DynIndex`](lis_core::index::DynIndex); the model-checking tests
//! instantiate it with small value types so `lis_check` can explore
//! publish/reload/reclaim interleavings without building real indexes.
//!
//! **Rollback is a forward publish.** Attack-triggered epoch rollback
//! (see [`crate::write::RollbackPolicy`]) does not rewind the counter:
//! the writer rebuilds a snapshot from last-good *content* and publishes
//! it as the next epoch. Epoch numbers stay monotonic, so the
//! cache-on-counter-change protocol above is untouched by recovery —
//! workers pick up a rollback exactly as they pick up any other write.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Mutex};
use std::sync::Arc;

/// Shared slot holding the served snapshot and its epoch number.
pub(crate) struct EpochSlot<T> {
    current: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochSlot<T> {
    /// A slot serving `front` as epoch 0.
    pub(crate) fn new(front: Arc<T>) -> Self {
        Self {
            current: Mutex::new(front),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current epoch number (0 until the first publish).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the currently served snapshot. Cheap (one `Arc` clone under a
    /// momentary lock); workers call this only when [`EpochSlot::epoch`]
    /// has moved.
    pub(crate) fn load(&self) -> Arc<T> {
        Arc::clone(&lock(&self.current))
    }

    /// Publishes `next` as the served snapshot, bumps the epoch, and
    /// returns the previous snapshot, so the caller drops it outside the
    /// lock (the last in-flight reader to release it frees it otherwise).
    pub(crate) fn publish(&self, next: Arc<T>) -> Arc<T> {
        let mut current = lock(&self.current);
        let old = std::mem::replace(&mut *current, next);
        self.epoch.fetch_add(1, Ordering::Release);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::index::IndexRegistry;
    use lis_core::keys::KeySet;

    #[test]
    fn publish_swaps_snapshot_and_bumps_epoch() {
        let ks = KeySet::from_keys((0..200u64).map(|i| i * 3).collect()).unwrap();
        let reg = IndexRegistry::with_defaults();
        let slot = EpochSlot::new(Arc::new(reg.build("btree", &ks).unwrap()));
        assert_eq!(slot.epoch(), 0);
        let reader = slot.load();
        assert_eq!(reader.len(), 200);

        let grown = ks.with_key(1).unwrap();
        let old = slot.publish(Arc::new(reg.build("btree", &grown).unwrap()));
        assert_eq!(slot.epoch(), 1);
        assert_eq!(old.len(), 200);
        // The pinned reader still serves its epoch-0 snapshot; a reload
        // sees the new one.
        assert!(!reader.lookup(1).found);
        assert!(slot.load().lookup(1).found);
    }
}

/// Model-checking tests: `lis_check` explores interleavings of the real
/// `EpochSlot` code under publish/reload/reclaim races.
#[cfg(all(test, feature = "check"))]
mod model_tests {
    use super::*;
    use lis_check::{thread, try_check, CheckConfig};

    fn cfg() -> CheckConfig {
        CheckConfig::new().min_schedules(500)
    }

    /// A reader caching by epoch races a writer publishing twice: every
    /// observed snapshot must be internally consistent (epoch matches
    /// value), no snapshot is lost, and each retired front is uniquely
    /// owned once every reader lets go (`Arc::try_unwrap` succeeds — a
    /// retired epoch is freed, never leaked to a still-pinned reader).
    #[test]
    fn publish_reload_reclaim_explored() {
        let report = try_check("epoch-publish-reload", cfg(), || {
            let slot = Arc::new(EpochSlot::new(Arc::new(0u64)));
            let reader_slot = Arc::clone(&slot);
            let reader = thread::spawn(move || {
                let mut cached_epoch = reader_slot.epoch();
                let mut cached = reader_slot.load();
                for _ in 0..2 {
                    let now = reader_slot.epoch();
                    if now != cached_epoch {
                        cached_epoch = now;
                        cached = reader_slot.load();
                    }
                    // The cached snapshot may trail the epoch counter by
                    // at most the published range — never ahead of it.
                    assert!(*cached <= reader_slot.epoch());
                }
                drop(cached);
            });
            let mut retired = Vec::new();
            for v in 1..=2u64 {
                retired.push(slot.publish(Arc::new(v)));
            }
            assert_eq!(slot.epoch(), 2);
            assert_eq!(*slot.load(), 2);
            reader.join().unwrap();
            // All readers are done: every retired front must now be
            // uniquely owned (reclaimable exactly once, never leaked to a
            // still-pinned reader and never double-recovered).
            let mut values: Vec<u64> = retired
                .into_iter()
                .map(|front| Arc::try_unwrap(front).expect("retired front still shared"))
                .collect();
            values.sort_unstable();
            assert_eq!(values, vec![0, 1]);
        })
        .expect("epoch publish/reload/reclaim must be race-free");
        assert!(report.distinct >= 100 || report.exhausted);
    }

    /// Two writers publishing concurrently: the epoch counter must count
    /// every publish (no lost bump) and the final snapshot must be one of
    /// the two published values.
    #[test]
    fn concurrent_publishers_never_lose_an_epoch() {
        try_check("epoch-two-writers", cfg(), || {
            let slot = Arc::new(EpochSlot::new(Arc::new(0u64)));
            let s2 = Arc::clone(&slot);
            let w = thread::spawn(move || {
                s2.publish(Arc::new(10));
            });
            slot.publish(Arc::new(20));
            w.join().unwrap();
            assert_eq!(slot.epoch(), 2, "a publish lost its epoch bump");
            let last = *slot.load();
            assert!(last == 10 || last == 20);
        })
        .expect("concurrent publishes must be race-free");
    }
}
