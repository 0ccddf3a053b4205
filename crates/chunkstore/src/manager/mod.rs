//! The store manager: metadata, space allocation, striping, chunk→
//! benefactor mapping, benefactor health, and the chunk-linking machinery
//! behind `ssdcheckpoint()`.
//!
//! The manager is a pure metadata service — it moves no data. All methods
//! here are untimed; [`crate::store::AggregateStore`] charges manager-RPC
//! and data-path costs around them.
//!
//! The manager is its log (DESIGN.md "manager module map", §16): every
//! change of its metadata is a [`Record`] that [`Manager::commit`] applies
//! to the live [`MetaState`] through [`MetaState::apply`] — the function
//! replay folds a journal lane with — and appends to the owner's lane.
//! Each mutator decides, builds its record and commits it, then acts on
//! the benefactor fleet: the state, the fleet, the ranks and the journal
//! here; file geometry in `layout`; the namespace in `files`; chunks in
//! `chunks`; slots and parity-group membership in `groups`.

mod chunks;
mod files;
mod groups;
mod layout;

pub use chunks::ChunkMeta;
pub use groups::GroupRef;
pub use layout::{FileMeta, Member, PlacementPolicy, Slot, StripeSpec, StripeWidth};

use crate::benefactor::Benefactor;
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, ChunkId};
use crate::journal::{JournalSet, MetaState, Record, Superblock, MAX_RECORD_BYTES};
use crate::shardmgr::{HashRing, ShardSet, DEFAULT_RING_SEED, DEFAULT_VNODES};
use simcore::Counter;

/// The manager's whole state, including the benefactor fleet.
#[derive(Debug)]
pub struct Manager {
    benefactors: Vec<Benefactor>,
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
    /// Files, names, slots, reference counts, chunk targets and digests,
    /// homes and parity groups — what the journal's records build, and
    /// written only by `commit`.
    state: MetaState,
    /// The manager's ranks (DESIGN.md §12, §16): per rank its node,
    /// standby, metadata CPU and crash state, and the ring that splits the
    /// keyspace among them. The paper's manager is one rank on node 0
    /// until the store places it; the timed store charges every RPC
    /// against this record.
    ranks: ShardSet,
    /// The metadata journal (DESIGN.md §16): one append-only lane per
    /// rank, holding every record `commit` applied to its keyspace, so a
    /// standby can replay it on takeover.
    journal: JournalSet,
}

impl Manager {
    /// A manager of `chunk_size` chunks whose journal appends bump
    /// `journal_records`.
    pub fn new(chunk_size: u64, journal_records: Counter) -> Self {
        assert!(chunk_size > 0 && chunk_size.is_power_of_two());
        Manager {
            benefactors: Vec::new(),
            alive: Vec::new(),
            placeable: Vec::new(),
            quarantined: 0,
            placement_epoch: 0,
            state: MetaState::new(chunk_size),
            ranks: ShardSet::new(
                HashRing::new(1, DEFAULT_VNODES, DEFAULT_RING_SEED),
                &[0],
                Vec::new(),
            ),
            journal: JournalSet::new(1, journal_records),
        }
    }

    pub fn chunk_size(&self) -> u64 {
        self.state.chunk_size
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
    /// is journaled, with one journal lane each: a record sits in the lane
    /// the ring in place routed it to.
    pub(crate) fn install_ranks(&mut self, ranks: ShardSet) {
        self.journal.relane(ranks.len());
        self.ranks = ranks;
    }

    // ----- the log (DESIGN.md §16) ------------------------------------------

    pub fn journal(&self) -> &JournalSet {
        &self.journal
    }

    /// Serialize lane `lane` as a persisted image: superblock + journal,
    /// with a fresh [`Record::LeafCheckpoint`] of every benefactor's live
    /// slot bitmap appended *to a copy* (the live lane is untouched and
    /// the shared record counter does not move), so the loader can
    /// rebuild allocators that also cover reservations. The `unload`
    /// half of DESIGN.md §16.
    pub fn unload_journal(&self, lane: usize) -> Vec<u8> {
        let mut snap = self.journal.lane(lane).clone();
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
        crate::journal::encode_image(&sb, &snap)
    }

    /// The live metadata: what every lane's records build together.
    pub fn state(&self) -> &MetaState {
        &self.state
    }

    /// A standby takeover of rank `rank`: its keyspace of the live state
    /// becomes `replayed`, its lane's replay.
    pub(crate) fn install_replay(&mut self, rank: usize, replayed: MetaState) {
        let ring = self.ranks.ring();
        self.state
            .install(replayed, |c| ring.owner_of_chunk(c) == rank, rank == 0);
    }

    /// The one writer of the manager's metadata: apply `record` to the
    /// live state through [`MetaState::apply`], as replay does, and append
    /// it to its lane — the chunk owner's, or lane 0 for the namespace.
    pub(crate) fn commit(&mut self, record: Record) {
        let lane = record
            .chunk()
            .map_or(0, |c| self.ranks.ring().owner_of_chunk(c));
        self.state.apply(&record);
        self.journal.append(lane, &record);
    }

    /// Refuse a record built from outside input that no frame can hold,
    /// before anything is committed.
    fn refuse_oversized(record: &Record) -> Result<()> {
        let max = MAX_RECORD_BYTES;
        match record.encode_into(&mut Vec::new()) {
            Err(bytes) => Err(StoreError::RecordTooLarge { bytes, max }),
            Ok(_) => Ok(()),
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
        let h = &self.state.homes[&c];
        let at = h
            .ids
            .iter()
            .position(|&b| b == home)
            .expect("a listed home");
        let (benefactor, slot) = (home.0, h.slots[at]);
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
        self.journal.append(rank, &Record::EpochBump { epoch });
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
