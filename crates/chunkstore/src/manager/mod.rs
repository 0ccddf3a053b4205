//! The store manager: metadata, space allocation, striping, chunk→
//! benefactor mapping, benefactor health, and the chunk-linking machinery
//! behind `ssdcheckpoint()`.
//!
//! The manager is a pure metadata service — it moves no data. All methods
//! here are untimed; [`crate::store::AggregateStore`] charges manager-RPC
//! and data-path costs around them.
//!
//! One `impl Manager`, split by decision (DESIGN.md "manager module
//! map"): the state, the fleet, the ranks and the journal here; file
//! geometry in `layout`; the namespace in `files`; chunks in `chunks`;
//! parity-group membership in `groups`.

mod chunks;
mod files;
mod groups;
mod layout;

pub use chunks::ChunkMeta;
pub use groups::GroupRef;
pub(crate) use layout::Member;
pub use layout::{FileMeta, PlacementPolicy, Slot, StripeSpec, StripeWidth};

use crate::benefactor::Benefactor;
use crate::ids::{BenefactorId, ChunkId, FileId, IdMap};
use crate::journal::{JournalSet, Placement, Record, Superblock};
use crate::shardmgr::{HashRing, ShardSet, DEFAULT_RING_SEED, DEFAULT_VNODES};
use simcore::Counter;
use std::collections::HashMap;

/// The manager's whole state, including the benefactor fleet.
#[derive(Debug)]
pub struct Manager {
    chunk_size: u64,
    benefactors: Vec<Benefactor>,
    files: IdMap<FileId, FileMeta>,
    by_name: HashMap<String, FileId>,
    chunk_refs: IdMap<ChunkId, u32>,
    chunk_meta: IdMap<ChunkId, ChunkMeta>,
    next_file: u64,
    next_chunk: u64,
    stripe_cursor: usize,
    /// Alive benefactors, ascending id — maintained incrementally by
    /// `register_benefactor`/`set_alive` so status sweeps never rescan
    /// the fleet.
    alive: Vec<BenefactorId>,
    /// Alive and not quarantined (placement-eligible), ascending id.
    placeable: Vec<BenefactorId>,
    /// How many benefactors are currently quarantined.
    quarantined: usize,
    /// Bumped on every placement-affecting mutation (chunk materialized or
    /// re-homed, benefactor liveness change, repair, reconcile, file
    /// deletion/linking). Client-side location caches compare their stored
    /// epoch against this to decide whether a cached chunk → home mapping
    /// is still authoritative (see `crate::loc_cache::LocationCache`).
    placement_epoch: u64,
    /// chunk → homes (with slots) and parity group, so the verified-read
    /// retry loop and the scrub daemon (which hold only a `ChunkId`) can
    /// find the survivors to reconstruct from; a linked checkpoint
    /// reference never joins the group. Written only by `commit`.
    placement: Placement,
    /// The manager's ranks (DESIGN.md §12, §16): per rank its node,
    /// standby, metadata CPU and crash state, and the ring that splits the
    /// keyspace among them. The paper's manager is one rank on node 0
    /// until the store places it; the timed store charges every RPC
    /// against this record.
    ranks: ShardSet,
    /// Crash-consistent metadata journal (DESIGN.md §16): one append-only
    /// lane per rank, holding every record `commit` applied to its
    /// keyspace so a standby can replay it on takeover. `None` (the default)
    /// journals nothing and the manager behaves exactly as without one.
    journal: Option<JournalSet>,
}

impl Manager {
    pub fn new(chunk_size: u64) -> Self {
        assert!(chunk_size > 0 && chunk_size.is_power_of_two());
        Manager {
            chunk_size,
            benefactors: Vec::new(),
            files: IdMap::default(),
            by_name: HashMap::new(),
            chunk_refs: IdMap::default(),
            chunk_meta: IdMap::default(),
            next_file: 0,
            next_chunk: 0,
            stripe_cursor: 0,
            alive: Vec::new(),
            placeable: Vec::new(),
            quarantined: 0,
            placement_epoch: 0,
            placement: Placement::default(),
            ranks: ShardSet::new(
                HashRing::new(1, DEFAULT_VNODES, DEFAULT_RING_SEED),
                &[0],
                Vec::new(),
            ),
            journal: None,
        }
    }

    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Current placement epoch (see the field doc).
    pub fn placement_epoch(&self) -> u64 {
        self.placement_epoch
    }

    /// Invalidate every client-side location cache: any event that can
    /// change where a chunk's authoritative copies live bumps this.
    pub(crate) fn bump_placement_epoch(&mut self) {
        self.placement_epoch += 1;
    }

    // ----- manager ranks (DESIGN.md §12, §16) -------------------------------

    pub(crate) fn ranks(&self) -> &ShardSet {
        &self.ranks
    }

    pub(crate) fn ranks_mut(&mut self) -> &mut ShardSet {
        &mut self.ranks
    }

    /// Replace the ranks (the store keeps their count) before anything
    /// is journaled: a record sits in the lane the ring in place routed
    /// it to.
    pub(crate) fn install_ranks(&mut self, ranks: ShardSet) {
        assert!(
            self.journal.as_ref().is_none_or(|j| j.total_records() == 0),
            "ranks are placed before any journaling"
        );
        self.ranks = ranks;
    }

    // ----- crash-consistent metadata journal (DESIGN.md §16) ----------------

    /// Turn on metadata journaling: one append-only lane per rank, each
    /// chunk-keyed record in the lane of the chunk's owner in the ranks'
    /// ring. Appends bump `records` — the lazily registered
    /// `store.journal_records` counter, so knobs-off stat snapshots never
    /// see it. Journaling is pure host-side bookkeeping: it charges no
    /// virtual time.
    pub fn enable_journal(&mut self, records: Counter) {
        assert!(self.journal.is_none(), "journal already enabled");
        self.journal = Some(JournalSet::new(self.ranks.len(), records));
    }

    pub fn journal(&self) -> Option<&JournalSet> {
        self.journal.as_ref()
    }

    /// Serialize lane `lane` as a persisted image: superblock + journal,
    /// with a fresh [`Record::LeafCheckpoint`] of every benefactor's live
    /// slot bitmap appended *to a copy* (the live lane is untouched and
    /// the shared record counter does not move), so the loader can
    /// rebuild allocators that also cover reservations. The `unload`
    /// half of DESIGN.md §16; `None` when journaling is off.
    pub fn unload_journal(&self, lane: usize) -> Option<Vec<u8>> {
        let j = self.journal.as_ref()?;
        let mut snap = j.lane(lane).clone();
        for (bi, b) in self.benefactors.iter().enumerate() {
            let a = b.slot_allocator();
            snap.append(&Record::LeafCheckpoint {
                benefactor: bi,
                len: a.len(),
                leaf: a.leaf_words().to_vec(),
            });
        }
        let sb = Superblock {
            shard: lane as u32,
            epoch: self.placement_epoch,
            records: snap.records(),
            journal_bytes: snap.byte_len() as u64,
        };
        Some(crate::journal::encode_image(&sb, &snap))
    }

    /// The live placement table: every chunk's homes and group.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The part of the live table rank `rank` owns: its lane's replay.
    pub fn rank_placement(&self, rank: usize) -> Placement {
        let ring = self.ranks.ring();
        self.placement
            .restricted(|c| ring.owner_of_chunk(c) == rank)
    }

    /// The one writer of homes and group membership: apply `record` to
    /// the live table through [`Placement::apply`], as replay does, and
    /// append it to the lane of the chunk's owner when journaling is on
    /// (without a journal nothing is encoded or allocated).
    pub(crate) fn commit(&mut self, record: Record) {
        let (Record::Place { chunk, .. }
        | Record::Free { chunk, .. }
        | Record::GroupLink { chunk, .. }
        | Record::GroupUnlink { chunk }) = record
        else {
            unreachable!("only home and group records are committed")
        };
        self.placement.apply(&record);
        if let Some(j) = &mut self.journal {
            j.append(self.ranks.ring().owner_of_chunk(chunk), &record);
        }
    }

    /// Commit `c`'s stored copy on `home` as placed, in its slot.
    fn place_home(&mut self, c: ChunkId, home: BenefactorId) {
        let slot = self.benefactors[home.0]
            .slot_of(c)
            .expect("a placed copy is stored");
        let benefactor = home.0;
        self.commit(Record::Place {
            chunk: c,
            benefactor,
            slot,
        });
    }

    /// Commit `c`'s listed copy on `home` as no longer authoritative.
    fn free_home(&mut self, c: ChunkId, home: BenefactorId) {
        let slot = self.placement.slot_on(c, home).expect("a listed home");
        let benefactor = home.0;
        self.commit(Record::Free {
            chunk: c,
            benefactor,
            slot,
        });
    }

    /// A cold (re)start of manager rank `rank`: bump the placement epoch
    /// and journal it in the rank's lane, so a replaying standby starts at
    /// an epoch no stale client-side location cache can match.
    pub(crate) fn revoke_epoch(&mut self, rank: usize) {
        self.bump_placement_epoch();
        let epoch = self.placement_epoch;
        if let Some(j) = &mut self.journal {
            j.append(rank, &Record::EpochBump { epoch });
        }
    }

    // ----- benefactor fleet -------------------------------------------------

    pub fn register_benefactor(&mut self, b: Benefactor) -> BenefactorId {
        let id = BenefactorId(self.benefactors.len());
        // Ids are handed out in ascending order, so pushing keeps the
        // incremental sets sorted.
        if b.is_alive() {
            self.alive.push(id);
        }
        if b.is_placeable() {
            self.placeable.push(id);
        }
        if b.is_quarantined() {
            self.quarantined += 1;
        }
        self.benefactors.push(b);
        id
    }

    /// Insert/remove `id` in a sorted membership Vec, keeping it sorted.
    fn set_membership(set: &mut Vec<BenefactorId>, id: BenefactorId, member: bool) {
        match (set.binary_search(&id), member) {
            (Err(at), true) => set.insert(at, id),
            (Ok(at), false) => {
                set.remove(at);
            }
            _ => {}
        }
    }

    /// Take a benefactor offline or bring it back, keeping the alive /
    /// placeable sets current. The single mutation point for liveness:
    /// callers outside the crate cannot reach `Benefactor::set_alive`.
    pub fn set_alive(&mut self, id: BenefactorId, alive: bool) {
        self.benefactors[id.0].set_alive(alive);
        Self::set_membership(&mut self.alive, id, alive);
        let placeable = self.benefactors[id.0].is_placeable();
        Self::set_membership(&mut self.placeable, id, placeable);
    }

    /// Quarantine a benefactor (or lift it), keeping the placeable set and
    /// the quarantine counter current.
    pub fn set_quarantined(&mut self, id: BenefactorId, quarantined: bool) {
        let b = &mut self.benefactors[id.0];
        if b.is_quarantined() != quarantined {
            self.quarantined = if quarantined {
                self.quarantined + 1
            } else {
                self.quarantined - 1
            };
        }
        b.set_quarantined(quarantined);
        let placeable = self.benefactors[id.0].is_placeable();
        Self::set_membership(&mut self.placeable, id, placeable);
    }

    pub fn benefactor(&self, id: BenefactorId) -> &Benefactor {
        &self.benefactors[id.0]
    }

    pub fn benefactor_mut(&mut self, id: BenefactorId) -> &mut Benefactor {
        &mut self.benefactors[id.0]
    }

    pub fn benefactor_count(&self) -> usize {
        self.benefactors.len()
    }

    /// Alive benefactors, ascending id. A borrow of the incrementally
    /// maintained set — no allocation, no fleet sweep.
    pub fn alive_benefactors(&self) -> &[BenefactorId] {
        &self.alive
    }

    /// Benefactors eligible for new chunk placement: alive and not
    /// quarantined by the scrub daemon. Reads and repairs-from still use
    /// the full alive set — quarantine only stops *new* bytes landing.
    /// Ascending id, allocation-free.
    pub fn placeable_benefactors(&self) -> &[BenefactorId] {
        &self.placeable
    }

    /// How many benefactors the scrub daemon has quarantined. O(1).
    pub fn quarantined_count(&self) -> usize {
        self.quarantined
    }

    /// Status-monitoring report: total/free space over alive benefactors.
    /// Walks only the alive set; each benefactor answers from its slot
    /// allocator's O(1) folded counter.
    pub fn space(&self) -> (u64, u64) {
        let mut total = 0;
        let mut free = 0;
        for &id in &self.alive {
            let b = &self.benefactors[id.0];
            total += b.capacity();
            free += b.free();
        }
        (total, free)
    }
}

#[cfg(test)]
mod tests;
