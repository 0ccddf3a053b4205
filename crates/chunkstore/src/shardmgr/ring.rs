//! Deterministic consistent-hash ring over placement keys.
//!
//! The ring partitions placement metadata across N manager shards. Each
//! shard contributes `vnodes` points on a 64-bit circle; a key is owned
//! by the shard whose point is the key's clockwise successor. Two
//! properties matter here:
//!
//! * **Determinism** — every point derives from the ring seed through
//!   `simcore::rng::child_seed`, never host randomness, so the same
//!   `(seed, shards, vnodes)` triple yields the same ownership map on
//!   every run (the project's bit-identical-replay discipline).
//! * **Stability under growth** — shard `k`'s points depend only on
//!   `(seed, k, vnode)`, *not* on the total shard count. Growing an
//!   N-shard ring to N+1 only adds the new shard's points, so a key
//!   either keeps its owner or moves to the new shard: in expectation
//!   only `1/(N+1)` of the keyspace remaps (the classic consistent-
//!   hashing bound, asserted by the `shardmgr_model` proptests).
//!
//! Clients route two key families through the ring: chunk-addressed
//! operations hash the `ChunkId`, and slot-addressed resolution
//! (`fetch_chunks` / `write_pages_batch`, which run *before* the client
//! knows the chunk id) hashes `(FileId, slot index)`. Both are pure
//! client-side computations — owner lookup costs no RPC.

use crate::ids::{ChunkId, FileId};
use simcore::rng::child_seed;

/// Virtual nodes per shard: enough to keep per-shard keyspace shares
/// within a few percent of uniform without bloating the point list
/// (share deviation scales like `1/sqrt(vnodes)`; at 256 the worst
/// shard's queue in the fan-in bench stays close to its fair share).
pub const DEFAULT_VNODES: usize = 256;

/// Hash-family tags keeping chunk- and slot-keyed lookups independent of
/// each other and of the vnode point stream.
const CHUNK_KEYS: u64 = 0xC1A5_517E_0000_0001;
const SLOT_KEYS: u64 = 0xC1A5_517E_0000_0002;

/// A deterministic consistent-hash ring mapping 64-bit keys to shards.
#[derive(Clone, Debug)]
pub struct HashRing {
    shards: usize,
    /// Sorted `(point, shard)` pairs; ties break to the lowest shard id
    /// so duplicate points cannot make ownership order-dependent.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    pub fn new(shards: usize, vnodes: usize, seed: u64) -> Self {
        assert!(shards >= 1, "a ring needs at least one shard");
        assert!(vnodes >= 1, "a shard needs at least one point");
        let mut points: Vec<(u64, usize)> = (0..shards)
            .flat_map(|s| {
                let shard_stream = child_seed(seed, s as u64);
                (0..vnodes).map(move |v| (child_seed(shard_stream, v as u64), s))
            })
            .collect();
        points.sort_unstable();
        HashRing { shards, points }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Owner of a chunk-addressed key.
    pub fn owner_of_chunk(&self, c: ChunkId) -> usize {
        self.owner(|| child_seed(CHUNK_KEYS, c.0))
    }

    /// Owner of a slot-addressed key (`fetch_chunks` / write resolution,
    /// where the client knows `(file, idx)` but not yet the chunk id).
    pub fn owner_of_slot(&self, file: FileId, idx: usize) -> usize {
        self.owner(|| child_seed(child_seed(SLOT_KEYS, file.0), idx as u64))
    }

    /// A one-shard ring (the paper's manager) owns every key without
    /// hashing it; otherwise the key's clockwise successor point does.
    fn owner(&self, key: impl FnOnce() -> u64) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let key = key();
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[i % self.points.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_deterministic_and_total() {
        let a = HashRing::new(4, DEFAULT_VNODES, 7);
        let b = HashRing::new(4, DEFAULT_VNODES, 7);
        let mut seen = [false; 4];
        for i in 0..4096u64 {
            let c = ChunkId(i);
            let owner = a.owner_of_chunk(c);
            assert_eq!(owner, b.owner_of_chunk(c), "same seed, same owner");
            assert!(owner < 4);
            seen[owner] = true;
        }
        assert!(seen.iter().all(|&s| s), "every shard owns some keys");
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(1, DEFAULT_VNODES, 42);
        for i in 0..512u64 {
            assert_eq!(ring.owner_of_chunk(ChunkId(i)), 0);
            assert_eq!(ring.owner_of_slot(FileId(i), i as usize), 0);
        }
    }

    #[test]
    fn growth_moves_keys_only_to_the_new_shard() {
        let old = HashRing::new(3, DEFAULT_VNODES, 9);
        let new = HashRing::new(4, DEFAULT_VNODES, 9);
        for i in 0..4096u64 {
            let c = ChunkId(i);
            let (a, b) = (old.owner_of_chunk(c), new.owner_of_chunk(c));
            assert!(a == b || b == 3, "chunk#{i} moved {a}→{b}, not to shard 3");
        }
    }

    #[test]
    fn slot_and_chunk_keys_hash_independently() {
        let ring = HashRing::new(8, DEFAULT_VNODES, 1);
        // Same numeric key through the two families must not always land
        // on the same shard (they are distinct hash streams).
        let diverges = (0..256u64)
            .any(|i| ring.owner_of_chunk(ChunkId(i)) != ring.owner_of_slot(FileId(i), 0));
        assert!(diverges);
    }
}
