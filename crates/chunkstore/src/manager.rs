//! The store manager: metadata, space allocation, striping, chunk→
//! benefactor mapping, benefactor health, and the chunk-linking machinery
//! behind `ssdcheckpoint()`.
//!
//! The manager is a pure metadata service — it moves no data. All methods
//! here are untimed; [`crate::store::AggregateStore`] charges manager-RPC
//! and data-path costs around them.

use crate::benefactor::Benefactor;
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, ChunkId, FileId};
use crate::journal::{JournalSet, Record, ShardMeta, Superblock};
use simcore::Counter;
use std::collections::HashMap;

/// How wide a file stripes: which benefactors end up in its stripe list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StripeWidth {
    /// Use every alive benefactor.
    All,
    /// Pick `n` alive benefactors round-robin from the manager's rotating
    /// cursor (spreads files across the store).
    Count(usize),
    /// Use exactly these benefactors (the evaluation's `z` configurations
    /// pin specific nodes).
    Explicit(Vec<BenefactorId>),
}

/// How a file's benefactor list is chosen at `fallocate` time, and how
/// many copies of each chunk the store keeps.
///
/// `replicas = 1` (the default) is the paper's unreplicated layout: a
/// benefactor failure makes its chunks unreachable. `replicas = k` places
/// every chunk on `k` *distinct* benefactors from the stripe, so reads
/// fail over and the repair scanner restores redundancy after a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripeSpec {
    pub width: StripeWidth,
    pub replicas: usize,
    /// Data members per parity group (`k`). Meaningful only when
    /// `parity > 0`; a `parity = 0` spec behaves exactly like plain
    /// striping regardless of this value.
    pub group_data: usize,
    /// Parity members per group (`m`). `0` (the default) disables the
    /// erasure-coded tier entirely — see [`StripeSpec::with_parity`].
    pub parity: usize,
}

impl StripeSpec {
    /// Stripe over every alive benefactor, unreplicated.
    pub fn all() -> Self {
        StripeSpec {
            width: StripeWidth::All,
            replicas: 1,
            group_data: 1,
            parity: 0,
        }
    }

    /// Stripe over `n` cursor-picked benefactors, unreplicated.
    pub fn count(n: usize) -> Self {
        StripeSpec {
            width: StripeWidth::Count(n),
            replicas: 1,
            group_data: 1,
            parity: 0,
        }
    }

    /// Stripe over exactly these benefactors, unreplicated.
    pub fn explicit(list: Vec<BenefactorId>) -> Self {
        StripeSpec {
            width: StripeWidth::Explicit(list),
            replicas: 1,
            group_data: 1,
            parity: 0,
        }
    }

    /// Keep `k ≥ 1` copies of every chunk on distinct benefactors.
    pub fn with_replicas(mut self, k: usize) -> Self {
        assert!(k >= 1, "replica degree must be at least 1");
        assert!(
            k == 1 || self.parity == 0,
            "replication and parity groups do not compose"
        );
        self.replicas = k;
        self
    }

    /// Protect the file with RS(k, m) parity groups (DESIGN.md §15):
    /// every run of `k` consecutive data chunks gets `m` parity chunks,
    /// all `k + m` group members on distinct benefactors. Tolerates the
    /// loss of any `m` members per group at `(k + m) / k`× storage —
    /// RS(4, 2) matches `replicas = 2`'s two-failure tolerance at 1.5×
    /// instead of 2×. `m = 0` is bit-identical to plain striping.
    pub fn with_parity(mut self, k: usize, m: usize) -> Self {
        assert!(k >= 1, "parity group needs at least one data member");
        assert!(
            m == 0 || self.replicas == 1,
            "replication and parity groups do not compose"
        );
        self.group_data = k;
        self.parity = m;
        self
    }
}

/// Chunk placement within a file's benefactor list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// chunk `i` lives on `stripe[i % stripe.len()]` (the paper's layout).
    RoundRobin,
    /// chunk `i` lives on `stripe[perm[i % stripe.len()]]` with a seeded
    /// per-file permutation — the ablation alternative.
    RandomPermutation { seed: u64 },
}

/// One slot of a file's chunk list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Reserved by fallocate, never written: reads as zeros; owns one
    /// reserved chunk slot on its benefactor.
    Unmaterialized,
    /// Frozen zero region inside a linked checkpoint file (no space).
    Hole,
    /// A materialized chunk.
    Chunk(ChunkId),
}

/// Per-file metadata.
#[derive(Clone, Debug)]
pub struct FileMeta {
    pub name: String,
    pub size: u64,
    /// Benefactor list the file stripes over (empty until fallocate).
    pub stripe: Vec<BenefactorId>,
    pub slots: Vec<Slot>,
    pub placement: PlacementPolicy,
    /// Copies kept of every chunk (≥ 1); replica `r` of slot `i` lives on
    /// the stripe position `r` places after the primary's.
    pub replicas: usize,
    /// Optional expiry: §III-C's "associating a lifetime with these
    /// memory-mapped variables, so that they are persistent beyond the
    /// application run" — and reclaimed once the workflow is done.
    pub expires_at: Option<simcore::VTime>,
    /// Data members per parity group (`k`); meaningful when `parity > 0`.
    pub group_data: usize,
    /// Parity members per group (`m`); `0` = no erasure coding.
    pub parity: usize,
    /// Parity chunk slots, `parity_groups() * parity` long: group `g`'s
    /// parity member `p` sits at `g * parity + p`. `Unmaterialized`
    /// parity reads as zeros, which is exactly the parity of an
    /// all-zero group — the invariant that lets fallocate reserve
    /// without encoding anything.
    pub parity_slots: Vec<Slot>,
    /// Parallel to `parity_slots`: `true` marks a parity member whose
    /// content no longer reflects its data members (a delta could not
    /// be applied because the parity home was dead). Stale parity is
    /// never used as a reconstruction survivor; the repair sweep
    /// re-encodes it from the data members and clears the flag.
    pub parity_stale: Vec<bool>,
}

/// Index into a stripe of length `stripe_len` of slot `idx`'s primary
/// copy under `placement`. Free function so fallocate can count slot
/// demand per benefactor before any `FileMeta` exists.
pub(crate) fn stripe_pos(placement: PlacementPolicy, stripe_len: usize, idx: usize) -> usize {
    assert!(stripe_len > 0, "file not fallocated");
    match placement {
        PlacementPolicy::RoundRobin => idx % stripe_len,
        PlacementPolicy::RandomPermutation { seed } => {
            // Deterministic per-(file,index) pick via SplitMix.
            let h = simcore::rng::child_seed(seed, idx as u64);
            (h % stripe_len as u64) as usize
        }
    }
}

impl FileMeta {
    /// Index into the stripe list of slot `idx`'s primary copy.
    fn stripe_pos_of_slot(&self, idx: usize) -> usize {
        stripe_pos(self.placement, self.stripe.len(), idx)
    }

    /// The benefactor that owns slot `idx`'s primary copy.
    pub fn home_of_slot(&self, idx: usize) -> BenefactorId {
        self.stripe[self.stripe_pos_of_slot(idx)]
    }

    /// All benefactors owning a copy of slot `idx`, allocation-free: the
    /// primary plus the next `replicas - 1` stripe positions. Distinct as
    /// long as `replicas <= stripe.len()` (enforced at fallocate).
    pub fn homes_iter(&self, idx: usize) -> impl Iterator<Item = BenefactorId> + '_ {
        let base = self.stripe_pos_of_slot(idx);
        (0..self.replicas.min(self.stripe.len()))
            .map(move |r| self.stripe[(base + r) % self.stripe.len()])
    }

    /// `homes_iter` collected (callers that need an owned list).
    pub fn homes_of_slot(&self, idx: usize) -> Vec<BenefactorId> {
        self.homes_iter(idx).collect()
    }

    /// Number of parity groups (`0` when the file is not erasure-coded).
    /// The last group may be partial: its missing data members read as
    /// zeros and contribute nothing to the parity.
    pub fn parity_groups(&self) -> usize {
        if self.parity == 0 {
            0
        } else {
            self.slots.len().div_ceil(self.group_data)
        }
    }

    /// The parity group data slot `idx` belongs to.
    pub fn group_of_slot(&self, idx: usize) -> usize {
        idx / self.group_data
    }

    /// Data slot indices of group `g` (clamped at the file end).
    pub fn group_data_slots(&self, g: usize) -> std::ops::Range<usize> {
        let lo = g * self.group_data;
        lo..((g + 1) * self.group_data).min(self.slots.len())
    }

    /// The benefactor owning parity member `p` of group `g`: `k + p`
    /// stripe positions after the group's first data member. With
    /// round-robin placement and `k + m <= stripe.len()` (enforced at
    /// fallocate) all `k + m` members of a group land on distinct
    /// benefactors — the invariant that makes any-m-loss recoverable.
    pub fn parity_home(&self, g: usize, p: usize) -> BenefactorId {
        let base = self.stripe_pos_of_slot(g * self.group_data);
        self.stripe[(base + self.group_data + p) % self.stripe.len()]
    }

    /// Parity slot for group `g`, member `p`.
    pub fn parity_slot(&self, g: usize, p: usize) -> Slot {
        self.parity_slots[g * self.parity + p]
    }

    /// Whether parity member `p` of group `g` is marked stale.
    pub fn parity_is_stale(&self, g: usize, p: usize) -> bool {
        self.parity_stale[g * self.parity + p]
    }
}

/// Reverse-map entry: which parity group a materialized chunk belongs
/// to. `member < k` is a data member (slot `group * k + member`);
/// `member >= k` is parity member `member - k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupRef {
    pub file: FileId,
    pub group: usize,
    pub member: usize,
}

/// Manager-side record of one materialized chunk's placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Benefactors currently holding an identical, authoritative copy.
    /// The first entry is the primary (preferred read source). Invariant:
    /// non-empty, entries distinct. A write that finds a dead home drops
    /// it from this list — the bytes left on the dead benefactor are
    /// stale and get reclaimed by `reconcile_recovered`.
    pub homes: Vec<BenefactorId>,
    /// Replica degree the chunk should have (its file's `replicas`).
    pub target: usize,
    /// CRC-64/XZ digest of the chunk's intended full content, recorded at
    /// every write *before* the bytes hit any benefactor — so a torn or
    /// bit-rotted copy disagrees with it (DESIGN.md §11).
    pub crc: u64,
}

/// The manager's whole state, including the benefactor fleet.
#[derive(Debug)]
pub struct Manager {
    chunk_size: u64,
    benefactors: Vec<Benefactor>,
    files: HashMap<FileId, FileMeta>,
    by_name: HashMap<String, FileId>,
    chunk_refs: HashMap<ChunkId, u32>,
    chunk_meta: HashMap<ChunkId, ChunkMeta>,
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
    /// chunk → parity-group membership for erasure-coded files, so the
    /// verified-read retry loop and the scrub daemon (which hold only a
    /// `ChunkId`) can find the survivors to reconstruct from. Maintained
    /// by `set_slot`/`set_parity_slot`/`delete_file`; linked checkpoint
    /// references never join (the group belongs to the source file).
    group_of: HashMap<ChunkId, GroupRef>,
    /// Crash-consistent metadata journal (DESIGN.md §16): one append-only
    /// lane per manager rank, recording every placement mutation so a
    /// standby can replay its shard's state on takeover. `None` (the
    /// default) journals nothing — the hooks below are no-ops and the
    /// manager behaves exactly as before.
    journal: Option<JournalSet>,
}

impl Manager {
    pub fn new(chunk_size: u64) -> Self {
        assert!(chunk_size > 0 && chunk_size.is_power_of_two());
        Manager {
            chunk_size,
            benefactors: Vec::new(),
            files: HashMap::new(),
            by_name: HashMap::new(),
            chunk_refs: HashMap::new(),
            chunk_meta: HashMap::new(),
            next_file: 0,
            next_chunk: 0,
            stripe_cursor: 0,
            alive: Vec::new(),
            placeable: Vec::new(),
            quarantined: 0,
            placement_epoch: 0,
            group_of: HashMap::new(),
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

    // ----- crash-consistent metadata journal (DESIGN.md §16) ----------------

    /// Turn on metadata journaling: one append-only lane per manager
    /// rank, chunk-keyed records routed by the same consistent-hash ring
    /// the shard set uses (`lanes = 1` for the serial manager). Appends
    /// bump `records` — the lazily registered `store.journal_records`
    /// counter, so knobs-off stat snapshots never see it. Journaling is
    /// pure host-side bookkeeping: it charges no virtual time.
    pub fn enable_journal(&mut self, lanes: usize, vnodes: usize, seed: u64, records: Counter) {
        assert!(self.journal.is_none(), "journal already enabled");
        self.journal = Some(JournalSet::new(lanes, vnodes, seed, records));
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

    /// Cross-check a journal-replayed [`ShardMeta`] against the live
    /// fleet: every journaled (benefactor, slot) home must be a live
    /// allocation actually holding that chunk. One-sided by design — the
    /// journal does not see reservations (and physical cleanup of stale
    /// copies can lag the metadata), so the live state may hold more.
    /// The standby's post-replay sanity gate.
    pub fn verify_replayed(&self, meta: &ShardMeta) {
        meta.assert_consistent();
        for (chunk, homes) in &meta.homes {
            for &(b, s) in homes {
                let bene = &self.benefactors[b];
                assert!(
                    bene.slot_allocator().is_allocated(s),
                    "journal places {chunk} in a free slot ({b}, {s})"
                );
                assert_eq!(
                    bene.slot_of(*chunk),
                    Some(s),
                    "journal home ({b}, {s}) disagrees with the fleet for {chunk}"
                );
            }
        }
    }

    /// Journal `c`'s placement on `home`. Must run while the chunk is
    /// physically present there, so the slot can be read back off the
    /// benefactor. No-op when journaling is off.
    fn journal_place(&mut self, c: ChunkId, home: BenefactorId) {
        if self.journal.is_none() {
            return;
        }
        let slot = self.benefactors[home.0]
            .slot_of(c)
            .expect("journaling a placement before the chunk is stored");
        self.journal.as_mut().unwrap().append(
            c,
            &Record::Place {
                chunk: c,
                benefactor: home.0,
                slot,
            },
        );
    }

    /// Journal a placement record for every current home of `c`.
    fn journal_chunk_places(&mut self, c: ChunkId) {
        if self.journal.is_none() {
            return;
        }
        let homes = self
            .chunk_meta
            .get(&c)
            .expect("unknown chunk")
            .homes
            .clone();
        for h in homes {
            self.journal_place(c, h);
        }
    }

    /// Journal that `c`'s copy on `home` is no longer authoritative.
    /// Must run while the copy is still physically present (metadata
    /// mutations precede physical drops everywhere in this crate).
    fn journal_free(&mut self, c: ChunkId, home: BenefactorId) {
        if self.journal.is_none() {
            return;
        }
        let slot = self.benefactors[home.0]
            .slot_of(c)
            .expect("journaling a free after the chunk is gone");
        self.journal.as_mut().unwrap().append(
            c,
            &Record::Free {
                chunk: c,
                benefactor: home.0,
                slot,
            },
        );
    }

    fn journal_group_link(&mut self, c: ChunkId, g: GroupRef) {
        if let Some(j) = &mut self.journal {
            j.append(
                c,
                &Record::GroupLink {
                    chunk: c,
                    file: g.file.0,
                    group: g.group as u32,
                    member: g.member as u32,
                },
            );
        }
    }

    fn journal_group_unlink(&mut self, c: ChunkId) {
        if let Some(j) = &mut self.journal {
            j.append(c, &Record::GroupUnlink { chunk: c });
        }
    }

    /// Journal `lane`'s lease revocation + epoch bump. Called after
    /// `bump_placement_epoch` so the record carries the new epoch; the
    /// replaying standby then starts at an epoch no stale client-side
    /// location cache can match. No-op when journaling is off.
    pub(crate) fn journal_revoke(&mut self, lane: usize) {
        let epoch = self.placement_epoch;
        if let Some(j) = &mut self.journal {
            j.append_to(lane, &Record::RevokeLeases { epoch });
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

    // ----- files ------------------------------------------------------------

    pub fn create_file(&mut self, name: &str) -> Result<FileId> {
        if self.by_name.contains_key(name) {
            return Err(StoreError::FileExists(name.to_string()));
        }
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            id,
            FileMeta {
                name: name.to_string(),
                size: 0,
                stripe: Vec::new(),
                slots: Vec::new(),
                placement: PlacementPolicy::RoundRobin,
                replicas: 1,
                expires_at: None,
                group_data: 1,
                parity: 0,
                parity_slots: Vec::new(),
                parity_stale: Vec::new(),
            },
        );
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    pub fn lookup(&self, name: &str) -> Option<FileId> {
        self.by_name.get(name).copied()
    }

    pub fn file(&self, id: FileId) -> Result<&FileMeta> {
        self.files.get(&id).ok_or(StoreError::NoSuchFile)
    }

    fn file_mut(&mut self, id: FileId) -> Result<&mut FileMeta> {
        self.files.get_mut(&id).ok_or(StoreError::NoSuchFile)
    }

    /// `posix_fallocate`: fix the file size, pick the stripe and reserve
    /// one chunk slot per replica per stripe position on the owning
    /// benefactors. With `spec.replicas = k`, every slot reserves `k`
    /// copies on `k` distinct benefactors — requires `k` not to exceed
    /// the resolved stripe width.
    pub fn fallocate(
        &mut self,
        id: FileId,
        size: u64,
        spec: StripeSpec,
        placement: PlacementPolicy,
    ) -> Result<()> {
        let chunk_size = self.chunk_size;
        let n_slots = size.div_ceil(chunk_size) as usize;
        let replicas = spec.replicas;
        let (group_data, parity) = (spec.group_data, spec.parity);
        let stripe = self.resolve_stripe(spec)?;
        if replicas > stripe.len() {
            return Err(StoreError::NotEnoughBenefactors {
                requested: replicas,
                alive: stripe.len(),
            });
        }
        let n_groups = if parity > 0 {
            assert_eq!(replicas, 1, "replication and parity groups do not compose");
            assert!(
                matches!(placement, PlacementPolicy::RoundRobin),
                "parity groups require round-robin placement: a seeded \
                 permutation can land two members of a group on one \
                 benefactor, voiding the loss-tolerance guarantee"
            );
            // Every group needs k + m distinct benefactors.
            if group_data + parity > stripe.len() {
                return Err(StoreError::NotEnoughBenefactors {
                    requested: group_data + parity,
                    alive: stripe.len(),
                });
            }
            n_slots.div_ceil(group_data)
        } else {
            0
        };

        // Count slots per benefactor under the chosen placement (flat
        // index-keyed counts, no map allocation churn), then check space
        // before mutating anything. Checked in ascending benefactor id,
        // so which violation reports first is deterministic.
        let mut per_bene = vec![0u64; self.benefactors.len()];
        let copies = replicas.min(stripe.len());
        for i in 0..n_slots {
            let base = stripe_pos(placement, stripe.len(), i);
            for r in 0..copies {
                per_bene[stripe[(base + r) % stripe.len()].0] += 1;
            }
        }
        // Parity member p of group g lives k + p stripe positions after
        // the group's first data member (see `FileMeta::parity_home`).
        for g in 0..n_groups {
            let base = stripe_pos(placement, stripe.len(), g * group_data);
            for p in 0..parity {
                per_bene[stripe[(base + group_data + p) % stripe.len()].0] += 1;
            }
        }
        for (bi, &slots) in per_bene.iter().enumerate() {
            if slots == 0 {
                continue;
            }
            let bene = &self.benefactors[bi];
            if !bene.is_alive() {
                return Err(StoreError::BenefactorDown(BenefactorId(bi)));
            }
            if bene.free() < slots * chunk_size {
                return Err(StoreError::OutOfSpace {
                    requested: slots * chunk_size,
                    available: bene.free(),
                });
            }
        }
        for (bi, &slots) in per_bene.iter().enumerate() {
            if slots > 0 {
                self.benefactors[bi].reserve_slots(slots);
            }
        }

        let meta = self.file_mut(id)?;
        assert!(
            meta.slots.is_empty() && meta.size == 0,
            "fallocate on an already-sized file"
        );
        meta.size = size;
        meta.stripe = stripe;
        meta.slots = vec![Slot::Unmaterialized; n_slots];
        meta.placement = placement;
        meta.replicas = replicas;
        if parity > 0 {
            meta.group_data = group_data;
            meta.parity = parity;
            meta.parity_slots = vec![Slot::Unmaterialized; n_groups * parity];
            meta.parity_stale = vec![false; n_groups * parity];
        }
        Ok(())
    }

    /// Resolve a stripe spec to a concrete benefactor list.
    ///
    /// Error contract:
    /// * no benefactor alive at all, or an empty `Explicit` list →
    ///   [`StoreError::NoBenefactors`];
    /// * `Explicit` naming a benefactor that is dead **or was never
    ///   registered** → [`StoreError::BenefactorDown`] for that id (an
    ///   unknown id is indistinguishable from a permanently-dead one from
    ///   the caller's perspective, so both report the same way);
    /// * `Count(n)` with `n` zero or above the alive population →
    ///   [`StoreError::NotEnoughBenefactors`].
    fn resolve_stripe(&mut self, spec: StripeSpec) -> Result<Vec<BenefactorId>> {
        // All/Count pick from the placeable set so quarantined benefactors
        // stop receiving new files; Explicit lists are honored as long as
        // the named benefactors are alive (the caller pinned them). Both
        // pools are the incrementally maintained sorted sets — borrowed,
        // not rebuilt, so the cursor advances after the borrow ends.
        let pool: &[BenefactorId] = match spec.width {
            StripeWidth::Explicit(_) => &self.alive,
            _ => &self.placeable,
        };
        if pool.is_empty() {
            return Err(StoreError::NoBenefactors);
        }
        let cursor = self.stripe_cursor;
        let (stripe, advance) = match spec.width {
            StripeWidth::All => {
                // Rotate the list per file so concurrent writers of
                // equally-striped files do not hit the same benefactor in
                // lockstep (the manager's load balancing).
                let start = cursor % pool.len();
                let stripe = (0..pool.len())
                    .map(|i| pool[(start + i) % pool.len()])
                    .collect();
                (stripe, 1)
            }
            StripeWidth::Count(n) => {
                if n == 0 || n > pool.len() {
                    return Err(StoreError::NotEnoughBenefactors {
                        requested: n,
                        alive: pool.len(),
                    });
                }
                let start = cursor % pool.len();
                let stripe = (0..n).map(|i| pool[(start + i) % pool.len()]).collect();
                (stripe, n)
            }
            StripeWidth::Explicit(list) => {
                if list.is_empty() {
                    return Err(StoreError::NoBenefactors);
                }
                for &b in &list {
                    if b.0 >= self.benefactors.len() || !self.benefactors[b.0].is_alive() {
                        return Err(StoreError::BenefactorDown(b));
                    }
                }
                (list, 0)
            }
        };
        self.stripe_cursor = cursor.wrapping_add(advance);
        Ok(stripe)
    }

    /// Delete a file: release reservations and drop chunk references.
    pub fn delete_file(&mut self, id: FileId) -> Result<()> {
        let meta = self.files.remove(&id).ok_or(StoreError::NoSuchFile)?;
        self.by_name.remove(&meta.name);
        self.bump_placement_epoch();
        for (i, slot) in meta.slots.iter().enumerate() {
            match slot {
                Slot::Unmaterialized => {
                    for home in meta.homes_iter(i) {
                        self.benefactors[home.0].release_slots(1);
                    }
                }
                Slot::Hole => {}
                Slot::Chunk(c) => {
                    // The group dies with the file that owns it — not with
                    // a checkpoint that merely links the chunk: the live
                    // file's reads still reconstruct through it. Shared
                    // checkpoint references may outlive the owner, but
                    // they are no longer reconstructible.
                    if self.group_of.get(c).is_some_and(|g| g.file == id) {
                        self.group_of.remove(c);
                        self.journal_group_unlink(*c);
                    }
                    self.decref_chunk(*c);
                }
            }
        }
        for (pi, slot) in meta.parity_slots.iter().enumerate() {
            match slot {
                Slot::Unmaterialized => {
                    let (g, p) = (pi / meta.parity, pi % meta.parity);
                    self.benefactors[meta.parity_home(g, p).0].release_slots(1);
                }
                Slot::Hole => unreachable!("parity slots are never holes"),
                Slot::Chunk(c) => {
                    if self.group_of.remove(c).is_some() {
                        self.journal_group_unlink(*c);
                    }
                    self.decref_chunk(*c);
                }
            }
        }
        Ok(())
    }

    // ----- chunk reference counting ------------------------------------------

    pub(crate) fn incref_chunk(&mut self, c: ChunkId) {
        *self.chunk_refs.get_mut(&c).expect("incref unknown chunk") += 1;
    }

    pub(crate) fn decref_chunk(&mut self, c: ChunkId) {
        let refs = self.chunk_refs.get_mut(&c).expect("decref unknown chunk");
        *refs -= 1;
        if *refs == 0 {
            self.chunk_refs.remove(&c);
            let meta = self.chunk_meta.remove(&c).expect("chunk without home");
            for home in meta.homes {
                // Journal the free while the slot is still queryable.
                self.journal_free(c, home);
                self.benefactors[home.0].drop_chunk(c);
            }
            self.bump_placement_epoch();
        }
    }

    pub fn chunk_refcount(&self, c: ChunkId) -> u32 {
        self.chunk_refs.get(&c).copied().unwrap_or(0)
    }

    /// The chunk's primary home (first live-listed copy).
    pub fn chunk_home(&self, c: ChunkId) -> Option<BenefactorId> {
        self.chunk_meta.get(&c).map(|m| m.homes[0])
    }

    /// Every benefactor holding an authoritative copy of `c`.
    pub fn chunk_homes(&self, c: ChunkId) -> Option<&[BenefactorId]> {
        self.chunk_meta.get(&c).map(|m| m.homes.as_slice())
    }

    /// The chunk's intended replica degree.
    pub fn chunk_target(&self, c: ChunkId) -> Option<usize> {
        self.chunk_meta.get(&c).map(|m| m.target)
    }

    pub(crate) fn new_chunk_id(
        &mut self,
        homes: Vec<BenefactorId>,
        target: usize,
        crc: u64,
    ) -> ChunkId {
        assert!(!homes.is_empty(), "chunk needs at least one home");
        let id = ChunkId(self.next_chunk);
        self.next_chunk += 1;
        self.chunk_refs.insert(id, 1);
        self.chunk_meta.insert(id, ChunkMeta { homes, target, crc });
        self.bump_placement_epoch();
        id
    }

    /// The digest every authoritative copy of `c` must match.
    pub fn chunk_crc(&self, c: ChunkId) -> Option<u64> {
        self.chunk_meta.get(&c).map(|m| m.crc)
    }

    /// Re-record `c`'s digest after an in-place page update.
    pub(crate) fn set_chunk_crc(&mut self, c: ChunkId, crc: u64) {
        self.chunk_meta.get_mut(&c).expect("unknown chunk").crc = crc;
    }

    /// Every materialized chunk id, sorted — the scrub daemon's walk order.
    pub fn chunk_ids_sorted(&self) -> Vec<ChunkId> {
        let mut ids: Vec<ChunkId> = self.chunk_meta.keys().copied().collect();
        ids.sort_unstable_by_key(|c| c.0);
        ids
    }

    /// Drop `home` from `c`'s authoritative copy list (the copy there is
    /// dead or stale). The chunk must keep at least one home.
    pub(crate) fn remove_chunk_home(&mut self, c: ChunkId, home: BenefactorId) {
        // Journal first: the physical copy (live or stale) is still on
        // the benefactor at this point, so its slot can be read back.
        self.journal_free(c, home);
        let meta = self.chunk_meta.get_mut(&c).expect("unknown chunk");
        meta.homes.retain(|&h| h != home);
        assert!(!meta.homes.is_empty(), "chunk {c} lost its last home");
        self.bump_placement_epoch();
    }

    /// Record a freshly repaired copy of `c` on `home`.
    pub(crate) fn add_chunk_home(&mut self, c: ChunkId, home: BenefactorId) {
        let meta = self.chunk_meta.get_mut(&c).expect("unknown chunk");
        debug_assert!(!meta.homes.contains(&home), "duplicate home");
        meta.homes.push(home);
        self.bump_placement_epoch();
        // The repaired copy was stored before the metadata records it.
        self.journal_place(c, home);
    }

    /// Chunks whose live copy count is below target, with a live donor.
    /// Returns `(chunk, donor, missing_copies)` triples.
    pub fn under_replicated(&self) -> Vec<(ChunkId, BenefactorId, usize)> {
        let mut out: Vec<(ChunkId, BenefactorId, usize)> = self
            .chunk_meta
            .iter()
            .filter_map(|(&c, m)| {
                // First live home is the donor; count the rest in place.
                let mut live = 0usize;
                let mut donor = None;
                for &h in &m.homes {
                    if self.benefactors[h.0].is_alive() {
                        live += 1;
                        donor.get_or_insert(h);
                    }
                }
                if live == 0 || live >= m.target {
                    return None;
                }
                Some((c, donor.unwrap(), m.target - live))
            })
            .collect();
        out.sort_by_key(|&(c, _, _)| c);
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
            .filter(|c| self.chunk_meta.get(c).is_none_or(|m| !m.homes.contains(&b)))
            .collect();
        for &c in &stale {
            self.benefactors[b.0].drop_chunk(c);
        }
        let over: Vec<ChunkId> = self.benefactors[b.0]
            .chunk_ids()
            .into_iter()
            .filter(|c| {
                self.chunk_meta.get(c).is_some_and(|m| {
                    m.homes.contains(&b)
                        && m.homes
                            .iter()
                            .filter(|h| self.benefactors[h.0].is_alive())
                            .count()
                            > m.target
                })
            })
            .collect();
        for &c in &over {
            // Metadata first: `remove_chunk_home` journals the free by
            // reading the slot off the still-present physical copy.
            self.remove_chunk_home(c, b);
            self.benefactors[b.0].drop_chunk(c);
        }
        self.bump_placement_epoch();
        stale.len() + over.len()
    }

    /// Record that file `id` slot `idx` now holds `chunk` (refcount was
    /// already set up by the caller). For erasure-coded files this also
    /// keeps the chunk → group reverse map current.
    pub(crate) fn set_slot(&mut self, id: FileId, idx: usize, slot: Slot) {
        let meta = self.files.get_mut(&id).expect("set_slot on missing file");
        let old = meta.slots[idx];
        meta.slots[idx] = slot;
        if meta.parity > 0 {
            let gref = GroupRef {
                file: id,
                group: idx / meta.group_data,
                member: idx % meta.group_data,
            };
            if let Slot::Chunk(old_c) = old {
                self.group_of.remove(&old_c);
                self.journal_group_unlink(old_c);
            }
            if let Slot::Chunk(c) = slot {
                self.group_of.insert(c, gref);
                self.journal_group_link(c, gref);
            }
        }
        if let Slot::Chunk(c) = slot {
            // Every home was stored before the slot record lands, so the
            // placements can be journaled with their physical slots.
            self.journal_chunk_places(c);
        }
        self.bump_placement_epoch();
    }

    /// Record that parity member `p` of group `g` now holds `slot`,
    /// keeping the reverse map current. Materializing a parity member
    /// also clears its stale flag: fresh content reflects the data.
    pub(crate) fn set_parity_slot(&mut self, id: FileId, g: usize, p: usize, slot: Slot) {
        let meta = self.files.get_mut(&id).expect("missing file");
        let (k, m) = (meta.group_data, meta.parity);
        assert!(m > 0, "set_parity_slot on an unencoded file");
        let old = meta.parity_slots[g * m + p];
        meta.parity_slots[g * m + p] = slot;
        meta.parity_stale[g * m + p] = false;
        if let Slot::Chunk(old_c) = old {
            self.group_of.remove(&old_c);
            self.journal_group_unlink(old_c);
        }
        if let Slot::Chunk(c) = slot {
            let gref = GroupRef {
                file: id,
                group: g,
                member: k + p,
            };
            self.group_of.insert(c, gref);
            self.journal_group_link(c, gref);
            self.journal_chunk_places(c);
        }
        self.bump_placement_epoch();
    }

    /// Flag (or clear) parity member `p` of group `g` as stale.
    pub(crate) fn set_parity_stale(&mut self, id: FileId, g: usize, p: usize, stale: bool) {
        let meta = self.files.get_mut(&id).expect("missing file");
        let m = meta.parity;
        meta.parity_stale[g * m + p] = stale;
    }

    /// The parity group `c` is a member of, if any.
    pub fn group_of_chunk(&self, c: ChunkId) -> Option<GroupRef> {
        self.group_of.get(&c).copied()
    }

    /// Erasure-coded files, ascending id — the repair sweep's walk order.
    pub fn parity_files_sorted(&self) -> Vec<FileId> {
        let mut ids: Vec<FileId> = self
            .files
            .iter()
            .filter(|(_, m)| m.parity > 0)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable_by_key(|f| f.0);
        ids
    }

    /// Link every slot of `src` to the end of `dst` — the zero-copy
    /// checkpoint merge of §III-E. Materialized chunks are shared by
    /// reference (incref); unwritten regions freeze as holes.
    pub fn link_file(&mut self, dst: FileId, src: FileId) -> Result<()> {
        let src_meta = self.file(src)?.clone();
        let mut appended = Vec::with_capacity(src_meta.slots.len());
        for slot in &src_meta.slots {
            match slot {
                Slot::Unmaterialized | Slot::Hole => appended.push(Slot::Hole),
                Slot::Chunk(c) => {
                    self.incref_chunk(*c);
                    appended.push(Slot::Chunk(*c));
                }
            }
        }
        let chunk_size = self.chunk_size;
        let dst_meta = self.file_mut(dst)?;
        // A linked region is sized in whole chunks.
        dst_meta.size = dst_meta.slots.len() as u64 * chunk_size + src_meta.size;
        dst_meta.slots.extend(appended);
        self.bump_placement_epoch();
        Ok(())
    }

    /// Total bytes of distinct materialized chunks (deduplicated storage).
    pub fn physical_bytes(&self) -> u64 {
        self.chunk_refs.len() as u64 * self.chunk_size
    }

    /// Set (or clear) a file's lifetime.
    pub fn set_lifetime(&mut self, id: FileId, expires_at: Option<simcore::VTime>) -> Result<()> {
        self.file_mut(id)?.expires_at = expires_at;
        Ok(())
    }

    /// Reclaim every file whose lifetime has passed; returns how many
    /// were deleted, in `FileId` order so slot release and journal `Free`
    /// records do not depend on the file map's hash order. The manager's
    /// periodic housekeeping sweep.
    pub fn expire_files(&mut self, now: simcore::VTime) -> usize {
        let mut expired: Vec<FileId> = self
            .files
            .iter()
            .filter(|(_, m)| m.expires_at.is_some_and(|t| t <= now))
            .map(|(&id, _)| id)
            .collect();
        expired.sort_unstable_by_key(|f| f.0);
        let n = expired.len();
        for id in expired {
            self.delete_file(id).expect("expired file exists");
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::{Ssd, INTEL_X25E};
    use simcore::{StatsRegistry, VTime};

    const CHUNK: u64 = 256 * 1024;

    fn mgr(benefactors: usize, cap_chunks: u64) -> Manager {
        let stats = StatsRegistry::new();
        let mut m = Manager::new(CHUNK);
        for i in 0..benefactors {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            m.register_benefactor(Benefactor::new(i, ssd, cap_chunks * CHUNK, CHUNK));
        }
        m
    }

    fn materialize(m: &mut Manager, f: FileId, idx: usize) -> ChunkId {
        let home = m.file(f).unwrap().home_of_slot(idx);
        let data = crate::payload::zero_chunk(CHUNK);
        let c = m.new_chunk_id(vec![home], 1, data.digest());
        m.benefactor_mut(home)
            .store_chunk(VTime::ZERO, c, data, CHUNK, true);
        m.set_slot(f, idx, Slot::Chunk(c));
        c
    }

    #[test]
    fn create_lookup_delete() {
        let mut m = mgr(2, 16);
        let f = m.create_file("/x").unwrap();
        assert_eq!(m.lookup("/x"), Some(f));
        assert_eq!(
            m.create_file("/x").unwrap_err(),
            StoreError::FileExists("/x".into())
        );
        m.delete_file(f).unwrap();
        assert_eq!(m.lookup("/x"), None);
        assert_eq!(m.delete_file(f).unwrap_err(), StoreError::NoSuchFile);
    }

    #[test]
    fn fallocate_reserves_striped_slots() {
        let mut m = mgr(2, 16);
        let f = m.create_file("/x").unwrap();
        m.fallocate(f, 4 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
            .unwrap();
        // 4 slots over 2 benefactors: 2 each.
        assert_eq!(m.benefactor(BenefactorId(0)).used(), 2 * CHUNK);
        assert_eq!(m.benefactor(BenefactorId(1)).used(), 2 * CHUNK);
        let meta = m.file(f).unwrap();
        assert_eq!(meta.slots.len(), 4);
        assert_eq!(meta.home_of_slot(0), BenefactorId(0));
        assert_eq!(meta.home_of_slot(1), BenefactorId(1));
        assert_eq!(meta.home_of_slot(2), BenefactorId(0));
    }

    #[test]
    fn fallocate_partial_chunk_rounds_up() {
        let mut m = mgr(1, 16);
        let f = m.create_file("/x").unwrap();
        m.fallocate(f, CHUNK + 1, StripeSpec::all(), PlacementPolicy::RoundRobin)
            .unwrap();
        assert_eq!(m.file(f).unwrap().slots.len(), 2);
    }

    #[test]
    fn fallocate_out_of_space() {
        let mut m = mgr(1, 2);
        let f = m.create_file("/x").unwrap();
        let err = m
            .fallocate(f, 3 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
            .unwrap_err();
        assert!(matches!(err, StoreError::OutOfSpace { .. }));
        // Nothing was reserved on failure.
        assert_eq!(m.benefactor(BenefactorId(0)).used(), 0);
    }

    #[test]
    fn stripe_count_selects_subset() {
        let mut m = mgr(4, 16);
        let f = m.create_file("/x").unwrap();
        m.fallocate(
            f,
            8 * CHUNK,
            StripeSpec::count(2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
        assert_eq!(m.file(f).unwrap().stripe.len(), 2);
        let y = m.create_file("/y").unwrap();
        let err = m
            .fallocate(y, CHUNK, StripeSpec::count(9), PlacementPolicy::RoundRobin)
            .unwrap_err();
        assert!(matches!(err, StoreError::NotEnoughBenefactors { .. }));
    }

    #[test]
    fn explicit_stripe_respected() {
        let mut m = mgr(4, 16);
        let f = m.create_file("/x").unwrap();
        m.fallocate(
            f,
            4 * CHUNK,
            StripeSpec::explicit(vec![BenefactorId(3), BenefactorId(1)]),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
        let meta = m.file(f).unwrap();
        assert_eq!(meta.home_of_slot(0), BenefactorId(3));
        assert_eq!(meta.home_of_slot(1), BenefactorId(1));
    }

    #[test]
    fn dead_benefactor_rejected() {
        let mut m = mgr(2, 16);
        m.set_alive(BenefactorId(1), false);
        let f = m.create_file("/x").unwrap();
        let err = m
            .fallocate(
                f,
                CHUNK,
                StripeSpec::explicit(vec![BenefactorId(1)]),
                PlacementPolicy::RoundRobin,
            )
            .unwrap_err();
        assert_eq!(err, StoreError::BenefactorDown(BenefactorId(1)));
        // Count(n) only sees the alive one.
        assert_eq!(m.alive_benefactors(), vec![BenefactorId(0)]);
    }

    #[test]
    fn explicit_stripe_error_contract() {
        // The documented resolve_stripe contract for Explicit lists: an
        // empty list is NoBenefactors; naming a dead OR never-registered
        // benefactor is BenefactorDown(the offending id) — one error for
        // "that benefactor cannot serve you", whatever the reason.
        let mut m = mgr(2, 16);
        let f = m.create_file("/x").unwrap();
        let err = m
            .fallocate(
                f,
                CHUNK,
                StripeSpec::explicit(vec![]),
                PlacementPolicy::RoundRobin,
            )
            .unwrap_err();
        assert_eq!(err, StoreError::NoBenefactors);

        let err = m
            .fallocate(
                f,
                CHUNK,
                StripeSpec::explicit(vec![BenefactorId(0), BenefactorId(9)]),
                PlacementPolicy::RoundRobin,
            )
            .unwrap_err();
        assert_eq!(err, StoreError::BenefactorDown(BenefactorId(9)));

        m.set_alive(BenefactorId(1), false);
        let err = m
            .fallocate(
                f,
                CHUNK,
                StripeSpec::explicit(vec![BenefactorId(1)]),
                PlacementPolicy::RoundRobin,
            )
            .unwrap_err();
        assert_eq!(err, StoreError::BenefactorDown(BenefactorId(1)));
        // Nothing was reserved by the failed attempts.
        assert_eq!(m.benefactor(BenefactorId(0)).used(), 0);
    }

    #[test]
    fn replicated_fallocate_reserves_k_slots_per_chunk() {
        let mut m = mgr(3, 16);
        let f = m.create_file("/x").unwrap();
        m.fallocate(
            f,
            3 * CHUNK,
            StripeSpec::all().with_replicas(2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
        // 3 slots × 2 replicas = 6 reservations, spread 2 per benefactor.
        let total: u64 = (0..3).map(|i| m.benefactor(BenefactorId(i)).used()).sum();
        assert_eq!(total, 6 * CHUNK);
        let meta = m.file(f).unwrap();
        assert_eq!(meta.replicas, 2);
        for idx in 0..3 {
            let homes = meta.homes_of_slot(idx);
            assert_eq!(homes.len(), 2);
            assert_ne!(homes[0], homes[1]);
        }
    }

    #[test]
    fn parity_fallocate_reserves_groups_on_distinct_benefactors() {
        let mut m = mgr(6, 64);
        let f = m.create_file("/x").unwrap();
        m.fallocate(
            f,
            8 * CHUNK,
            StripeSpec::all().with_parity(4, 2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
        // 8 data slots + 2 groups × 2 parity = 12 reservations.
        let total: u64 = (0..6).map(|i| m.benefactor(BenefactorId(i)).used()).sum();
        assert_eq!(total, 12 * CHUNK);
        let meta = m.file(f).unwrap();
        assert_eq!(meta.parity_groups(), 2);
        for g in 0..2 {
            let mut members: Vec<BenefactorId> = meta
                .group_data_slots(g)
                .map(|i| meta.home_of_slot(i))
                .collect();
            members.extend((0..2).map(|p| meta.parity_home(g, p)));
            let n = members.len();
            members.sort_unstable();
            members.dedup();
            assert_eq!(members.len(), n, "group {g} members must not co-locate");
        }
        // Delete releases every reservation, parity included.
        m.delete_file(f).unwrap();
        let total: u64 = (0..6).map(|i| m.benefactor(BenefactorId(i)).used()).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn parity_needs_wide_enough_stripe() {
        let mut m = mgr(3, 64);
        let f = m.create_file("/x").unwrap();
        let err = m
            .fallocate(
                f,
                8 * CHUNK,
                StripeSpec::all().with_parity(4, 2),
                PlacementPolicy::RoundRobin,
            )
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::NotEnoughBenefactors {
                requested: 6,
                alive: 3
            }
        );
    }

    #[test]
    fn group_reverse_map_tracks_materialization_and_delete() {
        let mut m = mgr(4, 64);
        let f = m.create_file("/x").unwrap();
        m.fallocate(
            f,
            4 * CHUNK,
            StripeSpec::all().with_parity(2, 1),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
        let c = materialize(&mut m, f, 3);
        assert_eq!(
            m.group_of_chunk(c),
            Some(GroupRef {
                file: f,
                group: 1,
                member: 1
            })
        );
        m.delete_file(f).unwrap();
        assert_eq!(m.group_of_chunk(c), None);
    }

    #[test]
    fn random_placement_is_deterministic() {
        let mut m = mgr(4, 64);
        let f = m.create_file("/x").unwrap();
        m.fallocate(
            f,
            32 * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RandomPermutation { seed: 7 },
        )
        .unwrap();
        let meta = m.file(f).unwrap();
        let homes: Vec<_> = (0..32).map(|i| meta.home_of_slot(i)).collect();
        let homes2: Vec<_> = (0..32).map(|i| meta.home_of_slot(i)).collect();
        assert_eq!(homes, homes2);
        // Not all on one benefactor.
        assert!(homes.iter().any(|&h| h != homes[0]));
    }

    #[test]
    fn link_file_shares_chunks_and_freezes_holes() {
        let mut m = mgr(2, 16);
        let var = m.create_file("/var").unwrap();
        m.fallocate(
            var,
            3 * CHUNK,
            StripeSpec::all(),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();
        let c0 = materialize(&mut m, var, 0);
        // Slot 1 stays unmaterialized; slot 2 materialized.
        let c2 = materialize(&mut m, var, 2);

        let ckpt = m.create_file("/ckpt").unwrap();
        m.link_file(ckpt, var).unwrap();
        assert_eq!(m.chunk_refcount(c0), 2);
        assert_eq!(m.chunk_refcount(c2), 2);
        let meta = m.file(ckpt).unwrap();
        assert_eq!(meta.slots[0], Slot::Chunk(c0));
        assert_eq!(meta.slots[1], Slot::Hole);
        assert_eq!(meta.slots[2], Slot::Chunk(c2));

        // No extra physical space for shared chunks.
        assert_eq!(m.physical_bytes(), 2 * CHUNK);

        // Deleting the variable keeps the checkpoint intact.
        m.delete_file(var).unwrap();
        assert_eq!(m.chunk_refcount(c0), 1);
        assert!(m.benefactor(m.chunk_home(c0).unwrap()).has_chunk(c0));
        // Deleting the checkpoint frees everything.
        m.delete_file(ckpt).unwrap();
        assert_eq!(m.chunk_refcount(c0), 0);
        assert_eq!(m.physical_bytes(), 0);
    }

    #[test]
    fn quarantined_benefactor_excluded_from_new_stripes() {
        let mut m = mgr(3, 16);
        m.set_quarantined(BenefactorId(1), true);
        assert_eq!(
            m.placeable_benefactors(),
            vec![BenefactorId(0), BenefactorId(2)]
        );
        assert_eq!(m.quarantined_count(), 1);

        let f = m.create_file("/x").unwrap();
        m.fallocate(f, 4 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
            .unwrap();
        let stripe = &m.file(f).unwrap().stripe;
        assert!(
            !stripe.contains(&BenefactorId(1)),
            "All-stripe skips the quarantined benefactor"
        );

        // Explicit pins still work: quarantine is not death.
        let y = m.create_file("/y").unwrap();
        m.fallocate(
            y,
            CHUNK,
            StripeSpec::explicit(vec![BenefactorId(1)]),
            PlacementPolicy::RoundRobin,
        )
        .unwrap();

        // Count cannot draw from the quarantined pool either.
        let z = m.create_file("/z").unwrap();
        let err = m
            .fallocate(z, CHUNK, StripeSpec::count(3), PlacementPolicy::RoundRobin)
            .unwrap_err();
        assert!(matches!(err, StoreError::NotEnoughBenefactors { .. }));
    }

    #[test]
    fn chunk_crc_recorded_and_updatable() {
        let mut m = mgr(2, 16);
        let f = m.create_file("/x").unwrap();
        m.fallocate(f, CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
            .unwrap();
        let c = materialize(&mut m, f, 0);
        let zeros = vec![0u8; CHUNK as usize];
        assert_eq!(m.chunk_crc(c), Some(crate::crc::crc64(&zeros)));
        m.set_chunk_crc(c, 0xDEAD);
        assert_eq!(m.chunk_crc(c), Some(0xDEAD));
        assert_eq!(m.chunk_ids_sorted(), vec![c]);
    }

    #[test]
    fn journal_unload_load_round_trip_survives_churn() {
        let stats = StatsRegistry::new();
        let mut m = mgr(2, 16);
        m.enable_journal(1, 8, 7, stats.counter("store.journal_records"));
        let f = m.create_file("/x").unwrap();
        m.fallocate(f, 4 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
            .unwrap();
        let c0 = materialize(&mut m, f, 0);
        let c1 = materialize(&mut m, f, 1);
        // Churn a second file through so frees hit the journal too.
        let y = m.create_file("/y").unwrap();
        m.fallocate(y, 2 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
            .unwrap();
        materialize(&mut m, y, 0);
        m.delete_file(y).unwrap();

        let image = m.unload_journal(0).unwrap();
        let (sb, meta, repair) = crate::journal::load_image(&image).unwrap();
        assert_eq!(sb.epoch, m.placement_epoch());
        assert!(!repair.torn, "clean image loads without repair");
        m.verify_replayed(&meta);
        assert!(meta.homes.contains_key(&c0));
        assert!(meta.homes.contains_key(&c1));
        // The deleted file's chunk was freed out of the replayed state.
        assert_eq!(meta.homes.len(), 2);
        // Rebuilt allocators agree with the fleet's free space.
        for (bi, _) in [(0usize, ()), (1, ())] {
            let live = m.benefactor(BenefactorId(bi)).slot_allocator();
            let rebuilt = meta.rebuild_alloc(bi, live.len());
            assert_eq!(rebuilt.free_count(), live.free_count());
        }
    }

    #[test]
    fn space_report() {
        let mut m = mgr(2, 4);
        let (total, free) = m.space();
        assert_eq!(total, 8 * CHUNK);
        assert_eq!(free, 8 * CHUNK);
        let f = m.create_file("/x").unwrap();
        m.fallocate(f, 2 * CHUNK, StripeSpec::all(), PlacementPolicy::RoundRobin)
            .unwrap();
        assert_eq!(m.space().1, 6 * CHUNK);
    }
}
