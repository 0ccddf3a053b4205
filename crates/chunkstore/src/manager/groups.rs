//! Slots and parity-group membership (DESIGN.md §15): [`Manager::set_slot`],
//! the one member setter, commits every `SlotSet`, and with
//! [`Manager::leave_group`] is the only place a `GroupLink` /
//! `GroupUnlink` is committed.

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
    /// `at` of file `id` — a data slot index, or a [`Member::Parity`]. A
    /// member of one of the file's parity groups hands its group over: the
    /// chunk it held leaves, `c` joins; a parity member that receives
    /// content also stops being stale. The chunk the member held is freed
    /// if no other slot holds it.
    pub(crate) fn set_slot(
        &mut self,
        id: FileId,
        at: impl Into<Member>,
        c: ChunkId,
        homes: &[BenefactorId],
    ) {
        let at = at.into();
        let meta = self.file(id).expect("set_slot on a missing file");
        let old = meta.slot(at);
        let grouped = match at {
            Member::Data(idx) => meta.group_member(idx),
            Member::Parity(g, p) => Some((g, meta.group_data + p)),
        };
        self.commit(Record::SlotSet {
            file: id,
            member: at,
            chunk: c,
        });
        if let Some((group, member)) = grouped {
            if let Slot::Chunk(old) = old {
                self.commit(Record::GroupUnlink { chunk: old });
            }
            let (file, group, member) = (id.0, group as u32, member as u32);
            self.commit(Record::GroupLink {
                chunk: c,
                file,
                group,
                member,
            });
        }
        for &home in homes {
            self.place_home(c, home);
        }
        if let Slot::Chunk(old) = old {
            self.free_if_unreferenced(old);
        }
        self.bump_placement_epoch();
    }

    /// Drop `c` from its parity group when file `id` owns the group. The
    /// group dies with the file that owns it — not with a checkpoint that
    /// merely links the chunk: the live file's reads still reconstruct
    /// through it. Linked references may outlive the owner, but they are
    /// no longer reconstructible.
    pub(super) fn leave_group(&mut self, id: FileId, c: ChunkId) {
        if self.group_of_chunk(c).is_some_and(|g| g.file == id) {
            self.commit(Record::GroupUnlink { chunk: c });
        }
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
        self.state.groups.get(&c).copied()
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
