//! File geometry: how a file stripes, where each of its slots lives and
//! which slots its parity groups cover — one walk for what fallocate
//! reserves and delete releases.

use crate::ids::{BenefactorId, ChunkId};

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

/// Where in a file a slot sits: data slot `idx`, or parity member `p` of
/// group `g`. Walked data first, then parity ([`FileMeta::members`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Member {
    Data(usize),
    Parity(usize, usize),
}

impl From<usize> for Member {
    fn from(idx: usize) -> Member {
        Member::Data(idx)
    }
}

/// Per-file metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// The data slots the parity groups cover: the slots fallocate sized.
    /// Slots `link_file` appends after them belong to their own files'
    /// groups, never to this file's (DESIGN.md §15).
    pub encoded_slots: usize,
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

impl FileMeta {
    /// The unnamed geometry `fallocate` gives a file of `size` bytes in
    /// `chunk_size` chunks over `stripe`: every slot and parity member
    /// unmaterialized, `(replicas, k, m)` copies and groups. A created
    /// file is the empty one.
    pub(crate) fn sized(
        size: u64,
        chunk_size: u64,
        stripe: &[BenefactorId],
        placement: PlacementPolicy,
        (replicas, k, m): (usize, usize, usize),
    ) -> FileMeta {
        let n_slots = size.div_ceil(chunk_size) as usize;
        let parity_slots = n_slots.div_ceil(k) * m;
        FileMeta {
            name: String::new(),
            size,
            stripe: stripe.to_vec(),
            slots: vec![Slot::Unmaterialized; n_slots],
            placement,
            replicas,
            expires_at: None,
            group_data: k,
            parity: m,
            encoded_slots: n_slots,
            parity_slots: vec![Slot::Unmaterialized; parity_slots],
            parity_stale: vec![false; parity_slots],
        }
    }

    /// Index into the stripe list of slot `idx`'s primary copy.
    fn primary_pos(&self, idx: usize) -> usize {
        let len = self.stripe.len();
        assert!(len > 0, "file not fallocated");
        match self.placement {
            PlacementPolicy::RoundRobin => idx % len,
            PlacementPolicy::RandomPermutation { seed } => {
                // Deterministic per-(file,index) pick via SplitMix.
                let h = simcore::rng::child_seed(seed, idx as u64);
                (h % len as u64) as usize
            }
        }
    }

    /// Where a member's copies (or reservations) live: data slot `idx` on
    /// its primary and the next `replicas - 1` stripe positions, parity
    /// member `p` of group `g` `k + p` positions after the group's first
    /// data member — distinct benefactors under round-robin placement and
    /// fallocate's `replicas`, `k + m <= stripe.len()`.
    pub(crate) fn homes_of(&self, member: Member) -> impl Iterator<Item = BenefactorId> + '_ {
        let (base, copies) = match member {
            Member::Data(idx) => (self.primary_pos(idx), self.replicas),
            Member::Parity(g, p) => {
                let first = self.primary_pos(g * self.group_data);
                (first + self.group_data + p, 1)
            }
        };
        let len = self.stripe.len();
        (0..copies.min(len)).map(move |r| self.stripe[(base + r) % len])
    }

    /// Every slot of the file with where it sits: data slots, then parity
    /// members in `parity_slots` order.
    pub(crate) fn members(&self) -> impl Iterator<Item = (Member, Slot)> + '_ {
        let data = (self.slots.iter().enumerate()).map(|(i, &s)| (Member::Data(i), s));
        let m = self.parity.max(1);
        let parity = (self.parity_slots.iter().enumerate())
            .map(move |(i, &s)| (Member::Parity(i / m, i % m), s));
        data.chain(parity)
    }

    /// The slot a member holds.
    pub(crate) fn slot(&self, member: Member) -> Slot {
        match member {
            Member::Data(idx) => self.slots[idx],
            Member::Parity(g, p) => self.parity_slot(g, p),
        }
    }

    /// The benefactor that owns slot `idx`'s primary copy.
    pub fn home_of_slot(&self, idx: usize) -> BenefactorId {
        self.stripe[self.primary_pos(idx)]
    }

    /// All benefactors owning a copy of slot `idx`.
    pub fn homes_of_slot(&self, idx: usize) -> Vec<BenefactorId> {
        self.homes_of(Member::Data(idx)).collect()
    }

    /// Number of parity groups (`0` when the file is not erasure-coded).
    /// The last group may be partial: its missing data members read as
    /// zeros and contribute nothing to the parity.
    pub fn parity_groups(&self) -> usize {
        if self.parity == 0 {
            0
        } else {
            self.encoded_slots.div_ceil(self.group_data)
        }
    }

    /// `(group, member)` of data slot `idx` when the file is encoded and
    /// `idx` lies in the covered extent.
    pub(crate) fn group_member(&self, idx: usize) -> Option<(usize, usize)> {
        let k = self.group_data;
        (self.parity > 0 && idx < self.encoded_slots).then_some((idx / k, idx % k))
    }

    /// Data slot indices of group `g` (clamped at the covered extent).
    pub fn group_data_slots(&self, g: usize) -> std::ops::Range<usize> {
        let lo = g * self.group_data;
        lo..((g + 1) * self.group_data).min(self.encoded_slots)
    }

    /// What member `member` (`< k` data, else parity `member - k`) of group
    /// `g` holds; a data member past the covered extent is a hole (zeros).
    pub(crate) fn group_slot(&self, g: usize, member: usize) -> Slot {
        let k = self.group_data;
        match member.checked_sub(k) {
            Some(p) => self.parity_slot(g, p),
            None if g * k + member < self.encoded_slots => self.slots[g * k + member],
            None => Slot::Hole,
        }
    }

    /// The benefactor owning parity member `p` of group `g`.
    pub fn parity_home(&self, g: usize, p: usize) -> BenefactorId {
        self.homes_of(Member::Parity(g, p))
            .next()
            .expect("fallocated")
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
