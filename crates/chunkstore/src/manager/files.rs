//! The namespace and what a file owns: creation, `fallocate`'s stripe and
//! reservations, deletion, checkpoint linking and lifetimes.

use super::{FileMeta, Manager, PlacementPolicy, Slot, StripeSpec, StripeWidth};
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, FileId};
use crate::journal::Record;

impl Manager {
    /// Create `name`. A name whose record no journal frame can hold is
    /// refused ([`StoreError::RecordTooLarge`]).
    pub fn create_file(&mut self, name: &str) -> Result<FileId> {
        if self.lookup(name).is_some() {
            return Err(StoreError::FileExists(name.to_string()));
        }
        let file = FileId(self.state.ns.next_file);
        let name = name.to_string();
        let record = Record::FileCreate { file, name };
        Self::refuse_oversized(&record)?;
        self.commit(record);
        Ok(file)
    }

    pub fn lookup(&self, name: &str) -> Option<FileId> {
        self.state.ns.by_name.get(name).copied()
    }

    pub fn file(&self, id: FileId) -> Result<&FileMeta> {
        self.state.ns.files.get(&id).ok_or(StoreError::NoSuchFile)
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
        let chunk_size = self.chunk_size();
        let replicas = spec.replicas;
        let (k, m) = match spec.parity {
            0 => (1, 0),
            m => (spec.group_data, m),
        };
        let (stripe, cursor) = self.resolve_stripe(spec)?;
        if m > 0 {
            assert_eq!(replicas, 1, "replication and parity groups do not compose");
            assert!(
                matches!(placement, PlacementPolicy::RoundRobin),
                "parity groups require round-robin placement: a seeded \
                 permutation can land two members of a group on one \
                 benefactor, voiding the loss-tolerance guarantee"
            );
        }
        // Every copy of a slot, and every member of a group, needs a
        // benefactor of its own.
        let width = replicas.max(k + m);
        if width > stripe.len() {
            return Err(StoreError::NotEnoughBenefactors {
                requested: width,
                alive: stripe.len(),
            });
        }
        let old = self.file(id)?;
        assert!(
            old.slots.is_empty() && old.size == 0,
            "fallocate on an already-sized file"
        );
        // Reservation counts per benefactor, allocated before the metadata:
        // `mm_fanout`'s peak RSS (`examples/benchmark`) moves with the order.
        let mut per_bene = vec![0u64; self.benefactors.len()];
        let meta = FileMeta::sized(size, chunk_size, &stripe, placement, (replicas, k, m));
        let record = Record::Fallocate {
            file: id,
            size,
            stripe,
            placement,
            replicas,
            group_data: k,
            parity: m,
            cursor,
        };
        Self::refuse_oversized(&record)?;
        // Count what the metadata about to be committed reserves, then check
        // space before committing anything. Checked in ascending benefactor
        // id, so which violation reports first is deterministic.
        for (member, _) in meta.members() {
            for home in meta.homes_of(member) {
                per_bene[home.0] += 1;
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
        self.commit(record);
        for (bi, &slots) in per_bene.iter().enumerate() {
            if slots > 0 {
                self.benefactors[bi].reserve_slots(slots);
            }
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
    ///
    /// The stripe cursor the pick leaves comes back with the list: the
    /// `Fallocate` record that commits the stripe carries it.
    fn resolve_stripe(&self, spec: StripeSpec) -> Result<(Vec<BenefactorId>, usize)> {
        // All/Count pick from the placeable set so quarantined benefactors
        // stop receiving new files; Explicit lists are honored as long as
        // the named benefactors are alive (the caller pinned them). Both
        // pools are the incrementally maintained sorted sets — borrowed,
        // not rebuilt.
        let pool: &[BenefactorId] = match spec.width {
            StripeWidth::Explicit(_) => &self.alive,
            _ => &self.placeable,
        };
        if pool.is_empty() {
            return Err(StoreError::NoBenefactors);
        }
        let cursor = self.state.ns.stripe_cursor;
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
        Ok((stripe, cursor.wrapping_add(advance)))
    }

    /// Delete a file: commit its deletion, then one walk over its members
    /// — data slots, then parity — releasing the reservations of unwritten
    /// ones and freeing the materialized ones no other slot holds.
    pub fn delete_file(&mut self, id: FileId) -> Result<()> {
        let meta = self.file(id)?.clone();
        self.commit(Record::FileDelete { file: id });
        self.bump_placement_epoch();
        for (member, slot) in meta.members() {
            match slot {
                Slot::Unmaterialized => {
                    for home in meta.homes_of(member) {
                        self.benefactors[home.0].release_slots(1);
                    }
                }
                Slot::Hole => {}
                Slot::Chunk(c) => self.free_if_unreferenced(c),
            }
        }
        Ok(())
    }

    /// Link every slot of `src` to the end of `dst` — the zero-copy
    /// checkpoint merge of §III-E, one record: materialized chunks are
    /// shared by reference and keep their own file's parity group;
    /// unwritten regions freeze as holes.
    pub fn link_file(&mut self, dst: FileId, src: FileId) -> Result<()> {
        self.file(src)?;
        self.file(dst)?;
        self.commit(Record::Link { dst, src });
        self.bump_placement_epoch();
        Ok(())
    }

    /// Set (or clear) a file's lifetime.
    pub fn set_lifetime(&mut self, id: FileId, expires_at: Option<simcore::VTime>) -> Result<()> {
        self.file(id)?;
        self.commit(Record::Lifetime {
            file: id,
            expires_at,
        });
        Ok(())
    }

    /// Reclaim every file whose lifetime has passed; returns how many
    /// were deleted, in `FileId` order so slot release and journal `Free`
    /// records do not depend on the file map's hash order. The manager's
    /// periodic housekeeping sweep.
    pub fn expire_files(&mut self, now: simcore::VTime) -> usize {
        let mut expired: Vec<FileId> = (self.state.ns.files.iter())
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
