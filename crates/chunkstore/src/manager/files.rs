//! The namespace and what a file owns: creation, `fallocate`'s stripe and
//! reservations, deletion, checkpoint linking and lifetimes.

use super::{FileMeta, Manager, PlacementPolicy, Slot, StripeSpec, StripeWidth};
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, FileId};

impl Manager {
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
                encoded_slots: 0,
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
        let (k, m) = match spec.parity {
            0 => (1, 0),
            m => (spec.group_data, m),
        };
        let stripe = self.resolve_stripe(spec)?;
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
        let parity_slots = n_slots.div_ceil(k) * m;
        let meta = FileMeta {
            size,
            stripe,
            slots: vec![Slot::Unmaterialized; n_slots],
            placement,
            replicas,
            group_data: k,
            parity: m,
            encoded_slots: n_slots,
            parity_slots: vec![Slot::Unmaterialized; parity_slots],
            parity_stale: vec![false; parity_slots],
            name: String::new(),
            expires_at: old.expires_at,
        };
        // Count what the metadata about to be committed reserves, then check
        // space before mutating anything. Checked in ascending benefactor
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
        for (bi, &slots) in per_bene.iter().enumerate() {
            if slots > 0 {
                self.benefactors[bi].reserve_slots(slots);
            }
        }
        let file = self.file_mut(id)?;
        *file = FileMeta {
            name: std::mem::take(&mut file.name),
            ..meta
        };
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

    /// Delete a file: one walk over its members — data slots, then parity
    /// — releasing the reservations of unwritten ones and the references
    /// of materialized ones.
    pub fn delete_file(&mut self, id: FileId) -> Result<()> {
        let meta = self.files.remove(&id).ok_or(StoreError::NoSuchFile)?;
        self.by_name.remove(&meta.name);
        self.bump_placement_epoch();
        for (member, slot) in meta.members() {
            match slot {
                Slot::Unmaterialized => {
                    for home in meta.homes_of(member) {
                        self.benefactors[home.0].release_slots(1);
                    }
                }
                Slot::Hole => {}
                Slot::Chunk(c) => {
                    self.leave_group(id, c);
                    self.decref_chunk(c);
                }
            }
        }
        Ok(())
    }

    /// Link every slot of `src` to the end of `dst` — the zero-copy
    /// checkpoint merge of §III-E. Materialized chunks are shared by
    /// reference (incref) and keep their own file's parity group; unwritten
    /// regions freeze as holes.
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
