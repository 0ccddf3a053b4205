//! Slots and parity-group membership (DESIGN.md §15): [`Manager::set_slot`],
//! the one member setter, commits every `SlotSet`; which group a chunk
//! belongs to is what `MetaState::apply` derives from the slots.

use super::{Manager, Member, Slot};
use crate::ids::{BenefactorId, ChunkId, FileId};
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
    /// Install new chunk `c` (born, copies stored on `homes`) in member
    /// `at` of file `id` — a data slot index, or a [`Member::Parity`]: one
    /// `SlotSet` (which hands a grouped member's group over to `c` and
    /// clears a parity member's stale flag) and a `Place` per home. The
    /// chunk the member held is freed if no other slot holds it.
    pub(crate) fn set_slot(
        &mut self,
        id: FileId,
        at: impl Into<Member>,
        c: ChunkId,
        homes: &[BenefactorId],
    ) {
        let at = at.into();
        let old = self.file(id).expect("set_slot on a missing file").slot(at);
        self.commit(Record::SlotSet {
            file: id,
            member: at,
            chunk: c,
        });
        for &home in homes {
            self.place_home(c, home);
        }
        if let Slot::Chunk(old) = old {
            self.free_if_unreferenced(old);
        }
        self.bump_placement_epoch();
    }

    /// Flag (or clear) parity member `p` of group `g` as stale.
    pub(crate) fn set_parity_stale(&mut self, id: FileId, g: usize, p: usize, stale: bool) {
        self.commit(Record::ParityStale {
            file: id,
            group: g,
            parity: p,
            stale,
        });
    }

    /// The parity group `c` is a member of, if any.
    pub fn group_of_chunk(&self, c: ChunkId) -> Option<GroupRef> {
        self.state.ns.groups.get(&c).copied()
    }

    /// Erasure-coded files, ascending id — the repair sweep's walk order.
    pub fn parity_files_sorted(&self) -> Vec<FileId> {
        let mut ids: Vec<FileId> = (self.state.ns.files.iter())
            .filter(|(_, m)| m.parity > 0)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable_by_key(|f| f.0);
        ids
    }
}
