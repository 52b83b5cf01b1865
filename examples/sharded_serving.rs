//! Sharded parallel serving.
//!
//! The production-scale story: split a large keyset into contiguous range
//! shards, serve each from its own learned structure behind one
//! `sharded:<name>:<N>` registry name, and fan batched lookups out across
//! a scoped thread pool — with answers identical to the monolithic index.
//! Timing the two is the `benchmark/` package's job (`index_lookup`).
//!
//! Run with `cargo run --release --example sharded_serving`.

use lis::prelude::*;

fn main() {
    // --- 1. A serving-scale keyset --------------------------------------
    let n = 200_000;
    let mut rng = lis::workloads::trial_rng(lis::workloads::DEFAULT_SEED, 0);
    let domain = lis::workloads::domain_for_density(n, 0.1).expect("valid density");
    let ks = lis::workloads::uniform_keys(&mut rng, n, domain).expect("generate keys");
    println!("keyset: {ks}");

    // --- 2. One registry name, one sharded fleet ------------------------
    // `sharded:rmi:8` resolves implicitly: the registry builds the `rmi`
    // entry once per contiguous range shard (in parallel) and wraps the
    // fleet in fence-key routing. Any registered name shards the same way.
    let registry = IndexRegistry::with_defaults();
    let plain = registry.build("rmi", &ks).expect("build rmi");
    let sharded = registry.build("sharded:rmi:8", &ks).expect("build sharded");
    println!(
        "built {} ({} keys) and {} ({} keys)",
        plain.name(),
        plain.len(),
        sharded.name(),
        sharded.len()
    );

    // --- 3. Same answers, redistributed work ----------------------------
    let probes: Vec<Key> = ks.keys().iter().step_by(2).copied().collect();
    let plain_hits = plain.lookup_batch(&probes);
    let sharded_hits = sharded.lookup_batch(&probes);
    assert!(plain_hits
        .iter()
        .zip(&sharded_hits)
        .all(|(p, s)| p.found == s.found && p.pos == s.pos));
    println!(
        "{} probes — rmi and sharded:rmi:8 answer identically ({} worker threads)",
        probes.len(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
}
