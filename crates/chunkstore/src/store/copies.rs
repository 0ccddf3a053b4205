//! The lifecycle of a stored chunk copy, decided once.
//!
//! Reads, writes, scrub, both repair sweeps and manager failover all have
//! to answer the same questions — which stored copy may be trusted, what
//! happens to one that fails its CRC, where a new copy goes, how a copy is
//! moved, how a lost parity-group member is decoded and installed, how
//! dirty bytes reach every live home, what a cold manager restart
//! invalidates. Each answer lives here, as a plain function over the
//! manager (and the network, when it charges time); callers wrap their own
//! schedule, counters and spans around it. Nothing here takes a lock:
//! scrub and the sweeps already hold the manager while the read path
//! takes it per step.

use super::AggregateStore;
use crate::benefactor::Benefactor;
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, ChunkId};
use crate::manager::{GroupRef, Manager, Slot};
use crate::payload::{leaf_with, zero_chunk, ChunkBuf};
use crate::rs::{gf_mul_acc, RsCode};
use crate::shardmgr::ShardSet;
use netsim::Network;
use simcore::VTime;

/// The first of `homes`, in list order, that sits on a live benefactor
/// and passes `ok`, with its rank in the list (rank > 0 = a failover).
pub(super) fn first_live(
    mgr: &Manager,
    homes: impl IntoIterator<Item = BenefactorId>,
    mut ok: impl FnMut(BenefactorId) -> bool,
) -> Option<(usize, BenefactorId)> {
    homes
        .into_iter()
        .enumerate()
        .find(|&(_, h)| mgr.benefactor(h).is_alive() && ok(h))
}

/// Which stored copy of `c` may be trusted: the first listed copy on a
/// live benefactor that passes the caller's test — [`is_clean`] wherever
/// the bytes feed a digest, a decode or a new replica, so rot on one copy
/// is never laundered into another.
pub(super) fn trusted_copy(
    mgr: &Manager,
    c: ChunkId,
    ok: impl FnMut(BenefactorId) -> bool,
) -> Option<BenefactorId> {
    first_live(mgr, mgr.chunk_homes(c)?.iter().copied(), ok).map(|(_, h)| h)
}

/// Do the bytes `home` stores for `c` still match the recorded CRC?
pub(super) fn is_clean(mgr: &Manager, c: ChunkId, home: BenefactorId) -> bool {
    let stored = mgr.benefactor(home).peek_chunk(c);
    stored.is_some_and(|chunk| Some(chunk.digest()) == mgr.chunk_crc(c))
}

/// Drop a CRC-mismatching copy: while a replica remains, the bad copy
/// leaves the home list and its bytes are reclaimed (the chunk shows up
/// under-replicated, so repair and scrub re-replicate the good copy). A
/// sole copy stays listed — the metadata invariant keeps at least one
/// home — and the function returns `false`: callers track it as known-bad
/// and report [`StoreError::ChunkCorrupt`] rather than serve it or copy it.
pub(super) fn drop_bad_copy(mgr: &mut Manager, c: ChunkId, home: BenefactorId) -> bool {
    let replicated = mgr.chunk_homes(c).expect("chunk listed").len() > 1;
    if replicated {
        mgr.remove_chunk_home(c, home);
        mgr.benefactor_mut(home).drop_chunk(c);
    }
    replicated
}

/// Where a new copy goes: the lowest-id placeable (alive, not
/// quarantined) benefactor outside `exclude` with a free slot.
pub(super) fn pick_destination(mgr: &Manager, exclude: &[BenefactorId]) -> Option<BenefactorId> {
    let mut placeable = mgr.placeable_benefactors().iter().copied();
    placeable.find(|b| !exclude.contains(b) && mgr.benefactor(*b).can_allocate_chunk(false))
}

/// How a copy is moved: donor SSD read → network copy → destination SSD
/// write, then the new home is listed. Sequential, so the returned
/// completion *is* the cost of the step.
pub(super) fn replicate_to(
    mgr: &mut Manager,
    net: &Network,
    t: VTime,
    c: ChunkId,
    donor: BenefactorId,
    dest: BenefactorId,
) -> VTime {
    let chunk_size = mgr.chunk_size();
    let (donor_node, dest_node) = (mgr.benefactor(donor).node, mgr.benefactor(dest).node);
    let (read, data) = mgr.benefactor(donor).read_chunk(t, c);
    let xfer = net.transfer_at(read.end, donor_node, dest_node, chunk_size);
    let stored = mgr
        .benefactor_mut(dest)
        .store_chunk(xfer.arrived, c, data, chunk_size, false);
    mgr.add_chunk_home(c, dest);
    stored.end
}

impl AggregateStore {
    /// How dirty bytes reach every live home: the client ships `bytes` to
    /// each of `homes` from `t` (one transfer per copy, each counted) and
    /// `apply` lands them on that benefactor at their arrival. Returns
    /// when the slowest copy is durable.
    pub(super) fn ship_to_homes(
        &self,
        mgr: &mut Manager,
        t: VTime,
        client_node: usize,
        homes: &[BenefactorId],
        bytes: u64,
        mut apply: impl FnMut(&mut Benefactor, VTime) -> VTime,
    ) -> VTime {
        let mut end = VTime::ZERO;
        for &home in homes {
            let home_node = mgr.benefactor(home).node;
            let xfer = self.net.transfer_at(t, client_node, home_node, bytes);
            self.bytes_from_clients.add(bytes);
            end = end.max(apply(mgr.benefactor_mut(home), xfer.arrived));
        }
        end
    }
}

/// What a cold manager (re)start invalidates, whether it is a shard
/// recovery, a rank reboot or a standby takeover: every lease the rank
/// granted, and — through the placement-epoch bump — every client-side
/// `LocationCache` resolution. The pairing is load-bearing: the bump is
/// what makes revoked clients stop trusting their caches, so no stale hit
/// can survive a revoke (the `shardmgr_model` proptest pins this). The
/// bump is journaled (a no-op unless HA journaling is on) so a replayed
/// rank knows the epoch its lease table died at. With the serial manager
/// there is no lease table, only the epoch. Returns the leases revoked.
pub(super) fn cold_restart_invalidate(
    shards: Option<&mut ShardSet>,
    mgr: &mut Manager,
    rank: usize,
) -> usize {
    let revoked = shards.map_or(0, |ss| ss.revoke_shard(rank));
    mgr.bump_placement_epoch();
    mgr.journal_revoke(rank);
    revoked
}

// ----- erasure-coded group members (DESIGN.md §15) --------------------------

/// One usable reconstruction source for a parity-group member: either a
/// free implicit-zero member (unmaterialized — no bytes move) or a live,
/// CRC-clean stored copy.
enum Survivor {
    Zeros(usize),
    Copy {
        member: usize,
        chunk: ChunkId,
        home: BenefactorId,
    },
}

/// `k` reconstruction sources for one group member, with the code's
/// `(k, m)`.
pub(super) struct Survivors {
    k: usize,
    m: usize,
    picks: Vec<Survivor>,
}

/// Pick `k` reconstruction sources for group `gref.group` of its file,
/// excluding member `gref.member` (the one being rebuilt). Scanned in
/// ascending member order so the pick — and therefore every
/// reconstruction's cost and outcome — is deterministic. A member
/// qualifies if it is implicit zeros (unmaterialized data, or
/// never-touched parity — the parity of an all-zero group *is* zeros), or
/// a live stored copy whose bytes still match the manager's CRC. Stale
/// parity never qualifies: its content stopped reflecting the data
/// members when a delta could not land.
pub(super) fn survivors_for(mgr: &Manager, gref: GroupRef) -> Result<Survivors> {
    let meta = mgr.file(gref.file)?;
    let (k, m) = (meta.group_data, meta.parity);
    let mut picks = Vec::with_capacity(k);
    for member in (0..k + m).filter(|&member| member != gref.member) {
        let slot = if member < k {
            // Partial last group: absent members are zeros.
            let idx = gref.group * k + member;
            Some(meta.slots.get(idx).copied().unwrap_or(Slot::Hole))
        } else {
            let p = member - k;
            (!meta.parity_is_stale(gref.group, p)).then(|| meta.parity_slot(gref.group, p))
        };
        let survivor = match slot {
            None => None,
            Some(Slot::Unmaterialized | Slot::Hole) => Some(Survivor::Zeros(member)),
            Some(Slot::Chunk(chunk)) => {
                let clean = trusted_copy(mgr, chunk, |h| is_clean(mgr, chunk, h));
                clean.map(|home| Survivor::Copy {
                    member,
                    chunk,
                    home,
                })
            }
        };
        picks.extend(survivor);
    }
    if picks.len() < k {
        return Err(StoreError::InsufficientSurvivors {
            file: gref.file,
            group: gref.group,
            have: picks.len(),
            need: k,
        });
    }
    picks.truncate(k);
    Ok(Survivors { k, m, picks })
}

/// How a lost member is decoded: gather the survivors' payloads in member
/// order — `read(chunk, home)` fetches one stored copy on whatever
/// schedule the caller charges (concurrent pulls to a client, sequential
/// benefactor-to-benefactor copies) — and solve for member `want`, one
/// leaf at a time with the coefficients of one inversion. Implicit-zero
/// members are read from `zeros`, the store's shared zero chunk, which
/// also gives the decoded payload its geometry.
pub(super) fn decode_member(
    from: &Survivors,
    zeros: &ChunkBuf,
    want: usize,
    mut read: impl FnMut(ChunkId, BenefactorId) -> ChunkBuf,
) -> ChunkBuf {
    let mut gathered: Vec<(usize, ChunkBuf)> = from
        .picks
        .iter()
        .map(|s| match *s {
            Survivor::Zeros(member) => (member, zeros.clone()),
            Survivor::Copy {
                member,
                chunk,
                home,
            } => (member, read(chunk, home)),
        })
        .collect();
    gathered.sort_unstable_by_key(|(member, _)| *member);
    let members: Vec<usize> = gathered.iter().map(|(m, _)| *m).collect();
    let coefs = RsCode::shared(from.k, from.m)
        .decode_rows(&members, &[want])
        .pop()
        .expect("one wanted member");
    let leaves = zeros.leaves().iter().enumerate().map(|(i, zero)| {
        leaf_with(zero.len(), |out| {
            for ((_, survivor), &c) in gathered.iter().zip(&coefs) {
                gf_mul_acc(out, &survivor.leaves()[i], c);
            }
        })
    });
    ChunkBuf::from_leaves(leaves.collect(), zeros.len() as u64)
}

/// Where the decoded content of a rebuilt group member lands.
pub(super) enum Landing {
    /// Overwrite the copy of `chunk` stored at `home`.
    InPlace { chunk: ChunkId, home: BenefactorId },
    /// A fresh copy of `chunk` on `dest`, replacing its listed homes (all
    /// dead, or the sweep would not be here).
    Rehome { chunk: ChunkId, dest: BenefactorId },
    /// A parity member that never materialized — the benefactor holding
    /// its reservation (`reserve`) died before the first delta could
    /// land: a new chunk on `dest`.
    Materialize {
        dest: BenefactorId,
        reserve: BenefactorId,
    },
}

/// Rebuild group member `gref.member` and install it at `landing`: pull
/// any `k` surviving members to the landing benefactor's node and decode.
/// Repair traffic is benefactor-to-benefactor — the client is not in the
/// path — and the survivor reads run sequentially, so the returned
/// completion is the full rebuild cost; it comes with the bytes moved
/// (survivor copies plus the one chunk written). With `trust_decode` the
/// decode *is* the truth — the member is stale parity whose stored copy
/// missed deltas — and becomes the recorded digest; otherwise it must
/// land exactly on the recorded digest, because anything else means a
/// survivor lied. `None` (nothing installed) when too few members
/// survive or the decode is refused.
pub(super) fn install_rebuilt(
    mgr: &mut Manager,
    net: &Network,
    t: VTime,
    gref: GroupRef,
    landing: Landing,
    trust_decode: bool,
) -> Option<(VTime, u64)> {
    let chunk_size = mgr.chunk_size();
    let zeros = zero_chunk(chunk_size);
    let at = match landing {
        Landing::InPlace { home, .. } => home,
        Landing::Rehome { dest, .. } | Landing::Materialize { dest, .. } => dest,
    };
    let dest_node = mgr.benefactor(at).node;
    let survivors = survivors_for(mgr, gref).ok()?;
    let (mut now, mut moved) = (t, chunk_size);
    let content = decode_member(&survivors, &zeros, gref.member, |chunk, home| {
        let (read, data) = mgr.benefactor(home).read_chunk(now, chunk);
        let from = mgr.benefactor(home).node;
        now = net
            .transfer_at(read.end, from, dest_node, chunk_size)
            .arrived;
        moved += chunk_size;
        data
    });
    let crc = content.digest();
    // Only parity goes stale or waits for its first delta.
    let parity_index = gref.member.checked_sub(survivors.k);
    if let Landing::InPlace { chunk, .. } | Landing::Rehome { chunk, .. } = landing {
        if trust_decode {
            let p = parity_index.expect("a trusted decode is stale parity");
            mgr.set_chunk_crc(chunk, crc);
            mgr.set_parity_stale(gref.file, gref.group, p, false);
        } else if Some(crc) != mgr.chunk_crc(chunk) {
            return None;
        }
    }
    let written = match landing {
        Landing::InPlace { chunk, home } => {
            let whole = [(0u64, content.leaves())];
            mgr.benefactor_mut(home).update_chunk(now, chunk, &whole)
        }
        Landing::Rehome { chunk, dest } => {
            let dead: Vec<BenefactorId> = mgr.chunk_homes(chunk).expect("chunk listed").to_vec();
            let g = mgr
                .benefactor_mut(dest)
                .store_chunk(now, chunk, content, chunk_size, false);
            mgr.add_chunk_home(chunk, dest);
            for h in dead {
                mgr.remove_chunk_home(chunk, h);
                mgr.benefactor_mut(h).drop_chunk(chunk);
            }
            g
        }
        Landing::Materialize { dest, reserve } => {
            let p = parity_index.expect("data members materialize on write");
            let consumes = dest == reserve;
            if !consumes {
                // The original reservation is parked on a dead or
                // quarantined benefactor; give it back.
                mgr.benefactor_mut(reserve).release_slots(1);
            }
            let c = mgr.new_chunk_id(vec![dest], 1, crc);
            let g = mgr
                .benefactor_mut(dest)
                .store_chunk(now, c, content, chunk_size, consumes);
            mgr.set_parity_slot(gref.file, gref.group, p, Slot::Chunk(c));
            g
        }
    };
    Some((written.end, moved))
}
