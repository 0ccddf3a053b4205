//! Materialized chunks: births, freeing, authoritative homes, recorded
//! digests, and reconciling a benefactor that comes back.

use super::Manager;
use crate::ids::{BenefactorId, ChunkId};
use crate::journal::Record;

/// Manager-side record of one materialized chunk, from its `ChunkBirth`
/// until its last home is freed. Its homes are non-empty and distinct
/// from `set_slot` on; a write that finds a dead home drops it, and the
/// stale bytes left there are reclaimed by `reconcile_recovered`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Replica degree the chunk should have (its file's `replicas`).
    pub target: usize,
    /// CRC-64/XZ digest of the chunk's intended full content, recorded at
    /// every write *before* the bytes hit any benefactor — so a torn or
    /// bit-rotted copy disagrees with it (DESIGN.md §11).
    pub crc: u64,
}

impl Manager {
    /// Free `c` once no slot holds it: every home leaves the state (the
    /// last `Free` ends the chunk) and the fleet drops its copies.
    pub(crate) fn free_if_unreferenced(&mut self, c: ChunkId) {
        if self.chunk_refcount(c) > 0 || self.chunk_homes(c).is_none() {
            return;
        }
        while let Some(home) = self.chunk_home(c) {
            self.free_home(c, home);
            self.benefactors[home.0].drop_chunk(c);
        }
        self.bump_placement_epoch();
    }

    /// How many slots, in every file, hold `c`.
    pub fn chunk_refcount(&self, c: ChunkId) -> u32 {
        self.state.ns.refs.get(&c).copied().unwrap_or(0)
    }

    /// The chunk's primary home (first live-listed copy).
    pub fn chunk_home(&self, c: ChunkId) -> Option<BenefactorId> {
        self.chunk_homes(c).map(|h| h[0])
    }

    /// Every benefactor holding an authoritative copy of `c`.
    pub fn chunk_homes(&self, c: ChunkId) -> Option<&[BenefactorId]> {
        self.state.homes.get(&c).map(|h| h.ids.as_slice())
    }

    /// The chunk's intended replica degree.
    pub fn chunk_target(&self, c: ChunkId) -> Option<usize> {
        self.state.chunks.get(&c).map(|m| m.target)
    }

    /// A new chunk. Its first slot and its homes enter the state when
    /// `set_slot` installs it, after its copies are stored.
    pub(crate) fn new_chunk_id(&mut self, target: usize, crc: u64) -> ChunkId {
        let chunk = ChunkId(self.state.ns.next_chunk);
        assert!(
            !self.state.chunks.contains_key(&chunk),
            "{chunk} is born twice: a birth is installed before the next"
        );
        self.commit(Record::ChunkBirth { chunk, target, crc });
        self.bump_placement_epoch();
        chunk
    }

    /// The digest every authoritative copy of `c` must match.
    pub fn chunk_crc(&self, c: ChunkId) -> Option<u64> {
        self.state.chunks.get(&c).map(|m| m.crc)
    }

    /// Re-record `c`'s digest after an in-place page update.
    pub(crate) fn set_chunk_crc(&mut self, c: ChunkId, crc: u64) {
        self.commit(Record::Digest { chunk: c, crc });
    }

    /// Every materialized chunk id, sorted — the scrub daemon's walk order.
    pub fn chunk_ids_sorted(&self) -> Vec<ChunkId> {
        let mut ids: Vec<ChunkId> = self.state.chunks.keys().copied().collect();
        ids.sort_unstable_by_key(|c| c.0);
        ids
    }

    /// Drop `home` from `c`'s authoritative copy list (the copy there is
    /// dead or stale). The chunk must keep at least one home.
    pub(crate) fn remove_chunk_home(&mut self, c: ChunkId, home: BenefactorId) {
        self.free_home(c, home);
        assert!(self.chunk_home(c).is_some(), "{c} lost every home");
        self.bump_placement_epoch();
    }

    /// Record a freshly repaired copy of `c`, stored on `home`.
    pub(crate) fn add_chunk_home(&mut self, c: ChunkId, home: BenefactorId) {
        let homes = self.chunk_homes(c).expect("unknown chunk");
        debug_assert!(!homes.contains(&home), "duplicate home");
        self.place_home(c, home);
        self.bump_placement_epoch();
    }

    /// Chunks whose live copy count is below target, with at least one
    /// live copy to repair from. Returns `(chunk, missing_copies)` pairs.
    pub fn under_replicated(&self) -> Vec<(ChunkId, usize)> {
        let mut out: Vec<(ChunkId, usize)> = (self.state.chunks.iter())
            .filter_map(|(&c, m)| {
                let homes = self.chunk_homes(c)?.iter();
                let live = homes.filter(|h| self.benefactors[h.0].is_alive()).count();
                (live > 0 && live < m.target).then(|| (c, m.target - live))
            })
            .collect();
        out.sort_by_key(|&(c, _)| c);
        out
    }

    /// Reconcile a benefactor that came back from the dead: physically
    /// drop every chunk it holds that the metadata no longer lists there
    /// (writes re-homed those chunks while it was down, so its copies are
    /// stale), and trim chunks the repair scanner re-replicated elsewhere
    /// in the meantime (the revived copy is the redundant one). Returns
    /// the number of chunk copies reclaimed.
    pub fn reconcile_recovered(&mut self, b: BenefactorId) -> usize {
        let stale: Vec<ChunkId> = self.benefactors[b.0]
            .chunk_ids()
            .into_iter()
            .filter(|&c| self.chunk_homes(c).is_none_or(|h| !h.contains(&b)))
            .collect();
        for &c in &stale {
            self.benefactors[b.0].drop_chunk(c);
        }
        let over: Vec<ChunkId> = self.benefactors[b.0]
            .chunk_ids()
            .into_iter()
            .filter(|&c| {
                let Some(homes) = self.chunk_homes(c) else {
                    return false;
                };
                let live = homes.iter().filter(|h| self.benefactors[h.0].is_alive());
                homes.contains(&b) && Some(live.count()) > self.chunk_target(c)
            })
            .collect();
        for &c in &over {
            self.remove_chunk_home(c, b);
            self.benefactors[b.0].drop_chunk(c);
        }
        self.bump_placement_epoch();
        stale.len() + over.len()
    }

    /// Total bytes of distinct materialized chunks (deduplicated storage).
    pub fn physical_bytes(&self) -> u64 {
        self.state.ns.refs.len() as u64 * self.chunk_size()
    }
}
