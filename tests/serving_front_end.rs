//! Integration tests of the concurrent serving front end: answers served
//! through the queue → micro-batcher → worker pool must be *identical* to
//! direct `DynIndex::lookup_batch` calls on the same index, under real
//! concurrency — multiple client threads, interleaved submissions, sharded
//! and unsharded victims, member keys and replayed campaign keys.

use lis::poison::{GreedyCdfAttack, PoisonBudget};
use lis::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn keyset(n: u64) -> KeySet {
    KeySet::from_keys((0..n).map(|i| i * 7 + 3).collect()).unwrap()
}

/// Per-client probe stream: members, misses, and out-of-domain keys in a
/// client-specific shuffled order.
fn client_probes(ks: &KeySet, client: u64) -> Vec<Key> {
    let mut probes: Vec<Key> = ks.keys().to_vec();
    probes.extend([0, 1, 2, ks.max_key() + 1, Key::MAX]);
    let len = probes.len();
    for i in 0..len {
        let j = (lis::workloads::rng::splitmix64(client ^ i as u64) % len as u64) as usize;
        probes.swap(i, j);
    }
    probes
}

/// The acceptance check: every answer a concurrent client receives from
/// the server equals the direct batched lookup on the same index — found,
/// position, and cost — for monolithic and sharded victims alike.
#[test]
fn served_answers_equal_direct_lookup_batch_under_concurrency() {
    let ks = keyset(3_000);
    let registry = IndexRegistry::with_defaults();
    for name in ["rmi", "sharded:rmi:8", "btree"] {
        let index = Arc::new(registry.build(name, &ks).unwrap());
        let server = Server::start(
            Arc::clone(&index),
            ServeConfig::new()
                .workers(4)
                .batch(32)
                .deadline(Duration::from_micros(100)),
        );
        let clients = 4;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let probes = client_probes(&ks, client);
                    let handle = server.handle();
                    let index = Arc::clone(&index);
                    scope.spawn(move || {
                        // Pipeline a window of requests so submissions from
                        // all clients interleave inside shared batches.
                        let mut served = Vec::with_capacity(probes.len());
                        for chunk in probes.chunks(64) {
                            let tickets: Vec<_> =
                                chunk.iter().map(|&k| server_submit(&handle, k)).collect();
                            served.extend(tickets.into_iter().map(|t| t.wait().unwrap()));
                        }
                        let direct = index.lookup_batch(&probes);
                        assert_eq!(served, direct, "served ≠ direct for client {client}");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let report = server.shutdown();
        assert_eq!(
            report.served as usize,
            clients as usize * (ks.len() + 5),
            "{name} lost requests"
        );
        assert_eq!(report.index, name);
        assert!(report.latency.count() == report.served);
        assert!(report.latency.p50() <= report.latency.p99());
        assert!(report.latency.p99() <= report.latency.max());
        assert!(report.mean_cost() > 0.0);
        assert!(report.throughput() > 0.0);
    }
}

fn server_submit(handle: &lis::server::ServerHandle, key: Key) -> lis::server::ResponseTicket {
    handle.submit(key).expect("server alive")
}

/// Single-request micro-batches (deadline flush) still answer correctly —
/// the trickle-traffic path.
#[test]
fn trickle_traffic_flushes_on_deadline() {
    let ks = keyset(400);
    let index = Arc::new(IndexRegistry::with_defaults().build("pla", &ks).unwrap());
    let server = Server::start(
        Arc::clone(&index),
        ServeConfig::new()
            .workers(1)
            .batch(1_024)
            .deadline(Duration::from_millis(2)),
    );
    let handle = server.handle();
    for &k in ks.keys().iter().step_by(97) {
        let served = handle.lookup(k).unwrap();
        assert_eq!(served, index.lookup(k), "trickle answer diverged on {k}");
    }
    let report = server.shutdown();
    // One request at a time: every batch was cut by the deadline, not the
    // size cap, and nothing was dropped.
    assert_eq!(report.served, report.batches);
}

/// The structural baseline shrugs off live attack traffic: a B+-tree's
/// served mean cost with half the stream replaying campaign keys stays
/// within 10% of its cost under member keys alone. Cost is deterministic
/// per key, so a fixed interleave measures the same thing a random mix
/// would, without the noise.
#[test]
fn btree_served_cost_is_flat_under_adversarial_replay() {
    let ks = keyset(2_000);
    let outcome = GreedyCdfAttack {
        budget: PoisonBudget::keys(200),
    }
    .run(&ks)
    .unwrap();
    let index = Arc::new(
        IndexRegistry::with_defaults()
            .build("btree", &outcome.poisoned)
            .unwrap(),
    );
    let served_cost = |probes: &[Key]| {
        let server = Server::start(Arc::clone(&index), ServeConfig::new().workers(2));
        let served = server.serve_all(probes).unwrap();
        assert!(served.iter().all(|r| r.found), "a served key went missing");
        server.shutdown().mean_cost()
    };
    let benign: Vec<Key> = ks.keys().to_vec();
    // Every other request replays a campaign key, cycling through them.
    let mixed: Vec<Key> = benign
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            if i % 2 == 0 {
                k
            } else {
                outcome.inserted[(i / 2) % outcome.inserted.len()]
            }
        })
        .collect();
    let drift = served_cost(&mixed) / served_cost(&benign);
    assert!(
        (drift - 1.0).abs() < 0.1,
        "btree served cost moved {drift:.3}x under 50% attack traffic"
    );
}

/// A clean pipeline reports equal costs for its two builds, and a
/// hand-driven server session answers every key exactly as the direct
/// batched lookup the pipeline measures with. The pipeline's own rows are
/// checked against served answers over its exact probes by a unit test in
/// `src/pipeline.rs`.
#[test]
fn pipeline_costs_match_hand_served_costs() {
    let ks = keyset(1_200);
    let report = lis::pipeline::Pipeline::new(WorkloadSpec::Fixed(ks.clone()))
        .index("btree")
        .queries(400)
        .run()
        .unwrap();
    let row = report.index("btree").unwrap();
    // A clean pipeline measures identical probes on two identical builds;
    // the costs must agree exactly.
    assert_eq!(row.clean_cost, row.final_cost);
    assert!(row.all_members_found);

    // Served answers equal the direct batched lookup over the whole keyset.
    // This does not compare against the row above, whose probes are a
    // seeded draw the test cannot see.
    let index = Arc::new(IndexRegistry::with_defaults().build("btree", &ks).unwrap());
    let server = Server::start(Arc::clone(&index), ServeConfig::offline());
    let served = server.serve_all(ks.keys()).unwrap();
    server.shutdown();
    assert_eq!(served, index.lookup_batch(ks.keys()));
}
