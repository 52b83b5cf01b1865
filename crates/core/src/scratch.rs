//! Reusable scratch buffers for allocation-free batched hot paths.
//!
//! The batched lookup paths (sorted-batch RMI/PLA routing, sharded
//! scatter/gather) need per-call working memory — permutation vectors,
//! per-shard buckets — that would otherwise be heap-allocated on every
//! batch. A [`ScratchPool`] keeps those buffers alive between calls:
//! a caller *acquires* a buffer (popping a previously released one when
//! available), uses it, and *releases* it back. After the first few
//! batches warm the pool, steady-state batches perform no heap
//! allocation at all — the property `lis-server`'s `zero_alloc` test
//! pins down end to end.
//!
//! The pool is a `Mutex<Vec<T>>`: the lock is held only for the
//! pop/push, never across the batch work, so concurrent server workers
//! sharing one index contend for nanoseconds (and simply build a fresh
//! buffer when the pool happens to be empty).
//!
//! [`ScratchDir`] is the same idea for the filesystem: a directory that
//! is unique per call and removed when its owner is done with it.

use crate::error::{LisError, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A pool of reusable scratch buffers (see the module docs).
pub struct ScratchPool<T> {
    pool: Mutex<Vec<T>>,
}

impl<T> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled buffer, or builds one with `make` when none is
    /// available. The caller is expected to clear/reset the buffer — its
    /// contents are whatever the releasing call left behind.
    pub fn acquire_or(&self, make: impl FnOnce() -> T) -> T {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(make)
    }

    /// Returns a buffer to the pool for the next acquire.
    pub fn release(&self, item: T) {
        self.pool.lock().expect("scratch pool poisoned").push(item);
    }

    /// Number of buffers currently pooled (idle).
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("scratch pool poisoned").len()
    }
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Clones start with an empty pool: scratch is transient working memory,
/// and a cloned index warms its own buffers on first use.
impl<T> Clone for ScratchPool<T> {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("idle", &self.idle())
            .finish()
    }
}

/// A fresh directory under the system temp dir, removed with everything
/// in it on drop.
///
/// The name is `lis-<label>-<pid>-<n>` with `n` from a process-wide
/// counter, so neither two tests of one process (cargo runs them on
/// parallel threads) nor two concurrent `cargo test` runs ever share a
/// directory, whatever labels and seeds they pass.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates the directory. `label` only makes the name readable.
    pub fn new(label: &str) -> Result<Self> {
        // lis-analysis: allow(no-global-knob) — an id source, not a setting.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("lis-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| LisError::Io {
            context: format!("create scratch dir {}: {e}", path.display()),
        })?;
        Ok(Self { path })
    }

    /// Where the directory is.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new("same-label").unwrap();
        let b = ScratchDir::new("same-label").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("file"), b"x").unwrap();
        let gone = a.path().to_path_buf();
        drop(a);
        assert!(!gone.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn acquire_release_reuses_buffers() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        let mut buf = pool.acquire_or(|| Vec::with_capacity(64));
        buf.extend(0..10);
        let cap = buf.capacity();
        pool.release(buf);
        assert_eq!(pool.idle(), 1);
        let again = pool.acquire_or(Vec::new);
        // Same buffer (capacity retained), stale contents included — the
        // acquirer owns clearing it.
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.len(), 10);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn clone_starts_empty() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        pool.release(vec![1, 2, 3]);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.clone().idle(), 0);
        assert!(format!("{pool:?}").contains("idle"));
    }

    #[test]
    fn concurrent_acquire_never_hands_out_one_buffer_twice() {
        let pool: ScratchPool<Box<usize>> = ScratchPool::new();
        for i in 0..4 {
            pool.release(Box::new(i));
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let buf = pool.acquire_or(|| Box::new(999));
                        let v = *buf;
                        pool.release(buf);
                        v
                    })
                })
                .collect();
            for h in handles {
                let v = h.join().unwrap();
                assert!(v < 4 || v == 999);
            }
        });
        assert!(pool.idle() >= 4);
    }
}
