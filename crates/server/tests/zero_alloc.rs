//! Allocation regression gate for the serving hot path.
//!
//! A counting global allocator (debug tooling — this test binary only)
//! measures heap allocations across two windows:
//!
//! 1. **Index batch path, strict**: once an index's scratch pools and the
//!    caller's result buffer are warm, `DynIndex::lookup_batch_into` must
//!    perform *zero* allocations per batch — for the monolithic victims
//!    and for the sharded composite's serial scatter/gather path alike.
//! 2. **Server response path, bounded**: steady-state serving allocates
//!    only on request admission (one `Arc<ResponseSlot>` per request,
//!    client-side). The workers' pop/lookup/fulfill cycle reuses pooled
//!    buffers, so total allocations over `R` requests must stay near `R`
//!    — the pre-refactor per-batch `Vec` churn (`pop_batch` + response
//!    vector per micro-batch) pushed this well above the asserted bound.
//!
//! Everything runs inside one `#[test]` so no concurrent test pollutes
//! the global counter (integration tests get their own process).

use lis_core::index::{DynIndex, IndexRegistry};
use lis_core::keys::{Key, KeySet};
use lis_server::{AdmitAll, ServeConfig, Server, WriteOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Mildly non-linear strictly increasing keys (so RMI windows are
/// non-trivial) without pulling the workloads crate into lis-server.
fn keyset(n: u64) -> KeySet {
    KeySet::from_keys((0..n).map(|i| i * 13 + (i % 7)).collect()).unwrap()
}

fn assert_batch_path_allocation_free(name: &str, index: &DynIndex, probes: &[Key]) {
    let mut out = Vec::new();
    // Warm: grows `out`, the index's pooled scratch, and any lazy state.
    for chunk in probes.chunks(512) {
        index.lookup_batch_into(chunk, &mut out);
    }
    index.lookup_batch_into(probes, &mut out);
    let before = allocations();
    for _ in 0..25 {
        for chunk in probes.chunks(512) {
            index.lookup_batch_into(chunk, &mut out);
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "{name}: warmed lookup_batch_into allocated {delta} times"
    );
    assert!(out.iter().all(|r| r.found), "{name} lost member probes");
}

#[test]
fn steady_state_serving_performs_no_per_batch_allocation() {
    // The libtest harness's main thread lazily allocates its
    // completion-channel parking context (one 48-byte Arc) the first
    // time it actually parks in `recv`. On a single-core host that
    // first park can land arbitrarily late — inside a measured window —
    // because this CPU-bound test thread keeps it off the core. Sleep
    // once up front so the harness thread runs, parks, and pays its
    // one-shot init before any counter is armed.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let ks = keyset(60_000);
    let registry = IndexRegistry::with_defaults();
    let probes: Vec<Key> = ks.keys().iter().step_by(29).copied().collect();

    // Window 1: the index batch hot path is allocation-free once warm.
    for name in ["rmi", "pla", "btree", "sharded:rmi:8"] {
        let index = registry.build(name, &ks).unwrap();
        assert_batch_path_allocation_free(name, &index, &probes);
    }

    // Window 2: the served response path. Per admitted request the client
    // side allocates once (the shared response slot); the worker side —
    // batch pop, lookup, ticket fulfillment, latency recording — must
    // reuse its buffers. Small batches maximize the old per-batch churn,
    // so a regression to per-batch allocation trips the bound hard
    // (~R + 3·R/8 for the pre-refactor code vs ~R now). Built through
    // the explicit builder with a disabled fault injector: the chaos
    // plane's default path is one `Option` discriminant check per site
    // and must stay invisible to this gate.
    let index = Arc::new(registry.build("rmi", &ks).unwrap());
    let server = Server::builder(ServeConfig::new().workers(2).batch(8))
        .faults(lis_server::FaultInjector::disabled())
        .start(Arc::clone(&index));
    let warm: Vec<Key> = probes.iter().copied().take(512).collect();
    for _ in 0..3 {
        server.serve_all(&warm).unwrap();
    }
    let requests = probes.len() as u64;
    let before = allocations();
    let served = server.serve_all(&probes).unwrap();
    let delta = allocations() - before;
    assert_eq!(served.len(), probes.len());
    let bound = requests + requests / 8 + 64;
    assert!(
        delta <= bound,
        "served {requests} requests with {delta} allocations (bound {bound}): \
         the response path is allocating per batch again"
    );
    let report = server.shutdown();
    assert!(report.throughput() > 0.0);

    // Window 3: the read path keeps the same per-request bound with the
    // write plane active. An online rmi server absorbs a write burst so
    // several epochs have been published, then serves the identical probe
    // load while a trickle of writes lands concurrently. Writes pay their
    // own bounded cost (client slot, keyset merge, one rebuild per epoch)
    // — the read side must not start allocating per batch because epochs
    // now move.
    let online = Server::builder(ServeConfig::new().workers(2).batch(8))
        .start_online(
            keyset(60_000),
            |ks| IndexRegistry::with_defaults().build("rmi", ks),
            Box::new(AdmitAll),
        )
        .unwrap();
    let handle = online.handle();
    let keys = ks.keys();
    let midpoint = |i: usize| {
        let (a, b) = (keys[i], keys[i + 1]);
        a + (b - a) / 2
    };
    for j in 0..200 {
        let status = handle
            .write(WriteOp::Insert(midpoint(10_000 + j * 5)), 0)
            .unwrap();
        assert!(status.is_applied(), "burst write failed: {status:?}");
    }
    for _ in 0..3 {
        online.serve_all(&warm).unwrap();
    }
    let before = allocations();
    std::thread::scope(|scope| {
        let trickle = scope.spawn(|| {
            for j in 0..8 {
                let key = midpoint(40_000 + j * 5);
                let status = handle.write(WriteOp::Insert(key), 1).unwrap();
                assert!(status.is_applied(), "trickle write failed: {status:?}");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let served = online.serve_all(&probes).unwrap();
        assert_eq!(served.len(), probes.len());
        trickle.join().unwrap();
    });
    let delta = allocations() - before;
    let bound = requests + requests / 8 + 2_048;
    assert!(
        delta <= bound,
        "served {requests} requests under live writes with {delta} allocations \
         (bound {bound}): the write plane is leaking allocation into the read path"
    );
    let report = online.shutdown();
    assert_eq!(report.writes_applied, 208);
    assert!(report.epochs > 0, "applied writes should publish epochs");

    // Window 4: the persistent worker pool. Starting a server above
    // already installed the shared pool as the core fan-out backend, so
    // oversize sharded batches (> PARALLEL_BATCH_THRESHOLD probes) now
    // scatter across pooled workers instead of scoped spawns. Once the
    // pool's unit deques and completion records, the shard fan-out
    // lanes, and the caller's buffers are warm, each pooled fan-out
    // batch must allocate *nothing*: submission is Arc refcounts plus
    // O(1) bucket swaps, and park/unpark is futex traffic, not heap.
    let pool = lis_server::pool::shared();
    assert!(pool.threads() >= 1);
    assert!(
        lis_core::par::installed_fanout().is_some(),
        "serving startup should have installed the shared pool"
    );
    let sharded = lis_core::ShardedIndex::build_with(&ks, 8, 4, |part| {
        IndexRegistry::with_defaults().build("rmi", part)
    })
    .unwrap();
    let sharded = DynIndex::new("sharded:rmi:8", sharded);
    let oversize: Vec<Key> = ks.keys().iter().step_by(7).copied().collect();
    assert!(
        oversize.len() > lis_core::shard::PARALLEL_BATCH_THRESHOLD,
        "window 4 needs an oversize batch to trigger the pooled fan-out"
    );
    let mut out = Vec::new();
    for _ in 0..4 {
        sharded.lookup_batch_into(&oversize, &mut out);
    }
    let before = allocations();
    for _ in 0..25 {
        sharded.lookup_batch_into(&oversize, &mut out);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warmed pooled fan-out allocated {delta} times across 25 oversize batches"
    );
    assert!(out.iter().all(|r| r.found), "pooled fan-out lost probes");
}
