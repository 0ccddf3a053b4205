//! Parity-group membership (DESIGN.md §15): [`Manager::set_slot`], the one
//! member setter, and [`Manager::leave_group`] are the only writers of the
//! chunk → group map and of its `GroupLink` / `GroupUnlink` records.

use super::{Manager, Member, Slot};
use crate::ids::{ChunkId, FileId};
use crate::journal::Record;

/// Reverse-map entry: which parity group a materialized chunk belongs
/// to. `member < k` is a data member (slot `group * k + member`);
/// `member >= k` is parity member `member - k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupRef {
    pub file: FileId,
    pub group: usize,
    pub member: usize,
}

impl Manager {
    /// Record that member `at` of file `id` — a data slot index, or a
    /// [`Member::Parity`] — now holds `slot` (the caller set up the
    /// refcount). A member of one of the file's parity groups hands its
    /// group over: the chunk it held leaves, the chunk it now holds joins;
    /// a parity member that receives content also stops being stale.
    pub(crate) fn set_slot(&mut self, id: FileId, at: impl Into<Member>, slot: Slot) {
        let at = at.into();
        let meta = self.files.get_mut(&id).expect("set_slot on a missing file");
        let old = std::mem::replace(meta.slot_mut(at), slot);
        let grouped = match at {
            Member::Data(idx) => meta.group_member(idx),
            Member::Parity(g, p) => {
                meta.parity_stale[g * meta.parity + p] = false;
                Some((g, meta.group_data + p))
            }
        };
        if let Some((group, member)) = grouped {
            if let Slot::Chunk(old) = old {
                self.regroup(old, None);
            }
            if let Slot::Chunk(c) = slot {
                self.regroup(
                    c,
                    Some(GroupRef {
                        file: id,
                        group,
                        member,
                    }),
                );
            }
        }
        if let (Slot::Chunk(c), true) = (slot, self.journal.is_some()) {
            // Every home was stored before the slot record lands.
            for home in self.chunk_meta[&c].homes.clone() {
                self.journal_home(c, home, true);
            }
        }
        self.bump_placement_epoch();
    }

    /// Drop `c` from its parity group when file `id` owns the group. The
    /// group dies with the file that owns it — not with a checkpoint that
    /// merely links the chunk: the live file's reads still reconstruct
    /// through it. Linked references may outlive the owner, but they are
    /// no longer reconstructible.
    pub(super) fn leave_group(&mut self, id: FileId, c: ChunkId) {
        if self.group_of.get(&c).is_some_and(|g| g.file == id) {
            self.regroup(c, None);
        }
    }

    /// `c` joins `gref`, or leaves its group — journaled.
    fn regroup(&mut self, c: ChunkId, gref: Option<GroupRef>) {
        let record = match gref {
            Some(g) => {
                self.group_of.insert(c, g);
                let (file, group, member) = (g.file.0, g.group as u32, g.member as u32);
                Record::GroupLink {
                    chunk: c,
                    file,
                    group,
                    member,
                }
            }
            None => {
                self.group_of.remove(&c);
                Record::GroupUnlink { chunk: c }
            }
        };
        self.journal_to(|r| r.ring().owner_of_chunk(c), record);
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
}
