//! A from-scratch bulk-loaded B+-tree baseline.
//!
//! The RMI's claim to fame is outperforming "the highly-optimized
//! traditional B-Tree data structure" (Section I); the poisoning attack's
//! punchline is that a poisoned RMI loses that edge. To measure both sides
//! we implement an in-memory B+-tree: fixed fanout, bulk-loaded from a
//! sorted key array, values are the global positions (ranks − 1) so lookups
//! are directly comparable with [`crate::rmi::Rmi::lookup`].
//!
//! Nodes are stored in flat arenas (no pointer chasing through boxes), the
//! standard layout for read-optimized in-memory trees.

use crate::error::{LisError, Result};
use crate::index::{LearnedIndex, Lookup};
use crate::keys::{Key, KeySet};
use crate::search::binary_search_counted;

/// An inner node: separator keys and child indices.
#[derive(Debug, Clone)]
struct InnerNode {
    /// `keys[i]` is the smallest key reachable through `children[i + 1]`.
    keys: Vec<Key>,
    /// Child node ids; `children.len() == keys.len() + 1`.
    children: Vec<u32>,
}

/// A leaf node: sorted keys and their global positions.
#[derive(Debug, Clone)]
struct LeafNode {
    keys: Vec<Key>,
    /// Global position of `keys[i]` in the underlying sorted array.
    base: usize,
}

/// Bulk-loaded, read-only B+-tree over a sorted key array.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    inners: Vec<InnerNode>,
    leaves: Vec<LeafNode>,
    /// Id of the root. Positive ids `i` address `inners[i - 1]`; the
    /// sentinel 0 means "single leaf root" (only when there is 1 leaf).
    root: u32,
    height: usize,
    fanout: usize,
    len: usize,
}

impl BPlusTree {
    /// Bulk-loads the tree from a keyset with the given fanout (max keys per
    /// leaf and max children per inner node).
    pub fn build(ks: &KeySet, fanout: usize) -> Result<Self> {
        if fanout < 2 {
            return Err(LisError::Invariant("B+-tree fanout must be ≥ 2".into()));
        }
        let keys = ks.keys();
        let mut leaves = Vec::with_capacity(keys.len().div_ceil(fanout));
        let mut pos = 0usize;
        for chunk in keys.chunks(fanout) {
            leaves.push(LeafNode {
                keys: chunk.to_vec(),
                base: pos,
            });
            pos += chunk.len();
        }

        // Build inner levels bottom-up. Level entries: (node_id, min_key).
        // Leaf ids are encoded as `id`, inner ids as `id + leaf_count`.
        let leaf_count = leaves.len() as u32;
        let mut inners: Vec<InnerNode> = Vec::new();
        let mut level: Vec<(u32, Key)> = leaves
            .iter()
            .enumerate()
            .map(|(i, l)| (i as u32, l.keys[0]))
            .collect();
        let mut height = 1usize;

        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(fanout));
            for group in level.chunks(fanout) {
                let children: Vec<u32> = group.iter().map(|&(id, _)| id).collect();
                let seps: Vec<Key> = group.iter().skip(1).map(|&(_, k)| k).collect();
                let min_key = group[0].1;
                inners.push(InnerNode {
                    keys: seps,
                    children,
                });
                next.push((leaf_count + inners.len() as u32 - 1, min_key));
            }
            level = next;
            height += 1;
        }

        let root = level[0].0;
        Ok(Self {
            inners,
            leaves,
            root,
            height,
            fanout,
            len: keys.len(),
        })
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the tree indexes no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (leaf level = 1).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Configured fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Looks `key` up, returning its global position and traversal cost
    /// (key comparisons across all visited nodes).
    pub fn lookup(&self, key: Key) -> Lookup {
        let leaf_count = self.leaves.len() as u32;
        let mut node = self.root;
        let mut comparisons = 0usize;

        while node >= leaf_count {
            let inner = &self.inners[(node - leaf_count) as usize];
            // partition_point comparisons ≈ ceil(log2(len + 1)).
            let idx = inner.keys.partition_point(|&k| k <= key);
            comparisons += usize::BITS as usize - (inner.keys.len() + 1).leading_zeros() as usize;
            node = inner.children[idx];
        }

        let leaf = &self.leaves[node as usize];
        let (found, cmp) = binary_search_counted(&leaf.keys, key);
        Lookup::position(found.map(|i| leaf.base + i), comparisons + cmp)
    }

    /// Total node count (inner + leaf), a proxy for memory footprint.
    pub fn node_count(&self) -> usize {
        self.inners.len() + self.leaves.len()
    }
}

impl LearnedIndex for BPlusTree {
    fn lookup(&self, key: Key) -> Lookup {
        BPlusTree::lookup(self, key)
    }

    /// A B+-tree fits no model; its loss is zero by definition.
    fn loss(&self) -> f64 {
        0.0
    }

    fn memory_bytes(&self) -> usize {
        let inner_bytes: usize = self
            .inners
            .iter()
            .map(|n| {
                n.keys.len() * std::mem::size_of::<Key>()
                    + n.children.len() * std::mem::size_of::<u32>()
            })
            .sum();
        let leaf_bytes: usize = self
            .leaves
            .iter()
            .map(|l| l.keys.len() * std::mem::size_of::<Key>())
            .sum();
        std::mem::size_of::<Self>()
            + inner_bytes
            + leaf_bytes
            + self.node_count() * std::mem::size_of::<LeafNode>()
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyset(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step + 5).collect()).unwrap()
    }

    #[test]
    fn rejects_tiny_fanout() {
        let ks = keyset(10, 2);
        assert!(BPlusTree::build(&ks, 1).is_err());
    }

    #[test]
    fn finds_every_key() {
        let ks = keyset(1000, 3);
        for fanout in [2usize, 4, 16, 64, 1024] {
            let t = BPlusTree::build(&ks, fanout).unwrap();
            for (i, &k) in ks.keys().iter().enumerate() {
                let r = t.lookup(k);
                assert_eq!(r.pos, Some(i), "fanout {fanout} key {k}");
            }
        }
    }

    #[test]
    fn misses_absent_keys() {
        let ks = keyset(500, 10);
        let t = BPlusTree::build(&ks, 16).unwrap();
        for k in [0u64, 6, 57, 4996, 100_000] {
            assert_eq!(t.lookup(k).pos, None, "key {k}");
        }
    }

    #[test]
    fn height_is_logarithmic() {
        let ks = keyset(10_000, 1);
        let t = BPlusTree::build(&ks, 16).unwrap();
        // 10_000 keys, fanout 16: ceil(log16(10000/16)) + 1 ≈ 4.
        assert!(t.height() <= 5, "height {}", t.height());
        assert!(t.height() >= 3);
    }

    #[test]
    fn single_leaf_tree() {
        let ks = keyset(5, 7);
        let t = BPlusTree::build(&ks, 16).unwrap();
        assert_eq!(t.height(), 1);
        for (i, &k) in ks.keys().iter().enumerate() {
            assert_eq!(t.lookup(k).pos, Some(i));
        }
        assert_eq!(t.lookup(999).pos, None);
    }

    #[test]
    fn lookup_cost_scales_with_height() {
        let ks = keyset(4096, 1);
        let t = BPlusTree::build(&ks, 8).unwrap();
        let r = t.lookup(ks.keys()[2000]);
        // Every level contributes at least one comparison.
        assert!(
            r.cost >= t.height(),
            "cost {} below height {}",
            r.cost,
            t.height()
        );
    }

    #[test]
    fn comparisons_bounded_by_log() {
        let ks = keyset(100_000, 2);
        let t = BPlusTree::build(&ks, 64).unwrap();
        let max_cmp = ks
            .keys()
            .iter()
            .step_by(997)
            .map(|&k| t.lookup(k).cost)
            .max()
            .unwrap();
        // Rough bound: height * ceil(log2(fanout)) + slack.
        assert!(max_cmp <= t.height() * 7 + 7, "max comparisons {max_cmp}");
    }

    #[test]
    fn node_count_is_reasonable() {
        let ks = keyset(10_000, 1);
        let t = BPlusTree::build(&ks, 100).unwrap();
        assert!(t.node_count() >= 100);
        assert!(t.node_count() <= 103);
    }
}
