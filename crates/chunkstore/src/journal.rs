//! # journal — crash-consistent manager-shard metadata (DESIGN.md §16)
//!
//! Each placement-manager rank keeps its chunk metadata recoverable: a
//! CRC-64-protected **superblock** plus an append-only **journal** of
//! self-checksummed, length-prefixed records of every home and group
//! change (chunk placed, chunk freed, parity-group membership) and
//! placement-epoch bump. The format follows the SPDK BlobStore
//! discipline the design doc cites: metadata is explicitly synced in
//! record-sized units, and load-time recovery *scans and repairs* — a
//! torn tail (a record cut short by the crash, or whose checksum no
//! longer matches) is detected and truncated, never replayed.
//!
//! The codec is deliberately tiny and deterministic: fixed-width
//! little-endian fields, no serde, no host-dependent layout — the same
//! state always serializes to the same bytes, so journal images can be
//! diffed across runs like every other artifact in this codebase.
//!
//! Replay folds a lane into a [`ShardMeta`]: a [`Placement`] (homes with
//! their slots, and group membership) built by the [`Placement::apply`]
//! that `Manager::commit` writes the live table with, per-benefactor leaf
//! slot bitmaps (live allocators again through [`BitAlloc::from_leaf`],
//! DESIGN.md §13's crash-recovery path) and the placement epoch. A standby
//! promotes once its lane's replay equals the live table of its keyspace
//! (`AggregateStore::failover_manager`).

use crate::bitalloc::BitAlloc;
use crate::crc::crc64;
use crate::ids::{BenefactorId, ChunkId, FileId, IdMap};
use crate::manager::GroupRef;
use simcore::Counter;
use std::collections::BTreeMap;

/// Superblock magic: "NVMJRNL1" as little-endian bytes.
pub const JOURNAL_MAGIC: u64 = u64::from_le_bytes(*b"NVMJRNL1");
/// On-media format version.
pub const JOURNAL_VERSION: u32 = 1;
/// Hard cap on one record's payload. A length prefix above this is
/// garbage by definition (torn or rotted), so the scanner truncates
/// there instead of trusting an absurd length.
pub const MAX_RECORD_BYTES: usize = 64 * 1024;
/// Encoded superblock size: magic + version + shard + epoch + records +
/// journal_bytes + CRC-64 over all of the above.
pub const SUPERBLOCK_BYTES: usize = 8 + 4 + 4 + 8 + 8 + 8 + 8;

/// Frame header per record: payload length (u32) + payload CRC-64.
const FRAME_HEADER: usize = 4 + 8;

/// One journaled metadata mutation.
///
/// Placement is journaled at (chunk, benefactor, slot) granularity — the
/// exact unit the benefactor's slot allocator hands out — so replay can
/// rebuild both the home map and the slot bitmaps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// `chunk` gained an authoritative copy in `slot` on `benefactor`.
    Place {
        chunk: ChunkId,
        benefactor: usize,
        slot: usize,
    },
    /// The copy of `chunk` in `slot` on `benefactor` is no longer
    /// authoritative (freed, re-homed away, or its file deleted).
    Free {
        chunk: ChunkId,
        benefactor: usize,
        slot: usize,
    },
    /// The placement epoch was bumped to `epoch` by a cold restart of
    /// this rank (reboot or standby takeover).
    EpochBump { epoch: u64 },
    /// `chunk` joined a parity group: member `member` of group `group`
    /// of file `file` (DESIGN.md §15 reverse map).
    GroupLink {
        chunk: ChunkId,
        file: u64,
        group: u32,
        member: u32,
    },
    /// `chunk` left its parity group (overwritten or deleted).
    GroupUnlink { chunk: ChunkId },
    /// Compacted checkpoint of one benefactor's leaf slot bitmap, as
    /// written by `unload`: `len` slots in `leaf` words. Replay feeds
    /// this straight to [`BitAlloc::from_leaf`]. The word vector may be
    /// empty (a benefactor with zero capacity slots) — the codec's
    /// zero-length edge case.
    LeafCheckpoint {
        benefactor: usize,
        len: usize,
        leaf: Vec<u64>,
    },
}

// Record tags. Explicit (not derived from enum order) because they are
// an on-media format.
const TAG_PLACE: u8 = 1;
const TAG_FREE: u8 = 2;
const TAG_EPOCH_BUMP: u8 = 3;
const TAG_GROUP_LINK: u8 = 4;
const TAG_GROUP_UNLINK: u8 = 5;
const TAG_LEAF_CHECKPOINT: u8 = 6;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn get_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

impl Record {
    /// Serialize the payload (tag + fields, little-endian, no framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Record::Place {
                chunk,
                benefactor,
                slot,
            } => {
                out.push(TAG_PLACE);
                put_u64(&mut out, chunk.0);
                put_u32(&mut out, *benefactor as u32);
                put_u32(&mut out, *slot as u32);
            }
            Record::Free {
                chunk,
                benefactor,
                slot,
            } => {
                out.push(TAG_FREE);
                put_u64(&mut out, chunk.0);
                put_u32(&mut out, *benefactor as u32);
                put_u32(&mut out, *slot as u32);
            }
            Record::EpochBump { epoch } => {
                out.push(TAG_EPOCH_BUMP);
                put_u64(&mut out, *epoch);
            }
            Record::GroupLink {
                chunk,
                file,
                group,
                member,
            } => {
                out.push(TAG_GROUP_LINK);
                put_u64(&mut out, chunk.0);
                put_u64(&mut out, *file);
                put_u32(&mut out, *group);
                put_u32(&mut out, *member);
            }
            Record::GroupUnlink { chunk } => {
                out.push(TAG_GROUP_UNLINK);
                put_u64(&mut out, chunk.0);
            }
            Record::LeafCheckpoint {
                benefactor,
                len,
                leaf,
            } => {
                out.push(TAG_LEAF_CHECKPOINT);
                put_u32(&mut out, *benefactor as u32);
                put_u64(&mut out, *len as u64);
                put_u32(&mut out, leaf.len() as u32);
                for w in leaf {
                    put_u64(&mut out, *w);
                }
            }
        }
        assert!(
            out.len() <= MAX_RECORD_BYTES,
            "record payload {} exceeds the {} cap",
            out.len(),
            MAX_RECORD_BYTES
        );
        out
    }

    /// Decode one payload. `None` on unknown tag or malformed fields —
    /// the scanner treats that exactly like a checksum mismatch. A payload
    /// is well-formed only if it is exactly the encoding of what it
    /// decodes to: no missing field, no trailing byte.
    pub fn decode_payload(buf: &[u8]) -> Option<Record> {
        let u32_at = |at| get_u32(buf, at).map(|v| v as usize);
        let u64_at = |at| get_u64(buf, at);
        let rec = match *buf.first()? {
            TAG_PLACE => Record::Place {
                chunk: ChunkId(u64_at(1)?),
                benefactor: u32_at(9)?,
                slot: u32_at(13)?,
            },
            TAG_FREE => Record::Free {
                chunk: ChunkId(u64_at(1)?),
                benefactor: u32_at(9)?,
                slot: u32_at(13)?,
            },
            TAG_EPOCH_BUMP => Record::EpochBump { epoch: u64_at(1)? },
            TAG_GROUP_LINK => Record::GroupLink {
                chunk: ChunkId(u64_at(1)?),
                file: u64_at(9)?,
                group: get_u32(buf, 17)?,
                member: get_u32(buf, 21)?,
            },
            TAG_GROUP_UNLINK => Record::GroupUnlink {
                chunk: ChunkId(u64_at(1)?),
            },
            TAG_LEAF_CHECKPOINT => {
                // Sized first: a rotted count must not allocate.
                let words = u32_at(13)?;
                if buf.len() != 17 + words * 8 || buf.len() > MAX_RECORD_BYTES {
                    return None;
                }
                Record::LeafCheckpoint {
                    benefactor: u32_at(1)?,
                    len: u64_at(5)? as usize,
                    leaf: (0..words)
                        .map(|i| u64_at(17 + i * 8))
                        .collect::<Option<_>>()?,
                }
            }
            _ => return None,
        };
        (rec.encode_payload() == buf).then_some(rec)
    }
}

/// What the load-time scanner found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Records that decoded and checksummed clean.
    pub records: u64,
    /// Bytes cut off the tail (torn frame, bad checksum, or garbage).
    pub truncated_bytes: usize,
    /// True when anything had to be truncated.
    pub torn: bool,
}

/// One shard's append-only metadata log: framed, self-checksummed
/// records in a flat byte buffer (the simulation's stand-in for the
/// on-SSD metadata region).
#[derive(Clone, Debug, Default)]
pub struct Journal {
    buf: Vec<u8>,
    records: u64,
}

impl Journal {
    pub fn new() -> Self {
        Journal::default()
    }

    /// Append one record: `[len: u32][crc64(payload): u64][payload]`.
    pub fn append(&mut self, r: &Record) {
        let payload = r.encode_payload();
        put_u32(&mut self.buf, payload.len() as u32);
        put_u64(&mut self.buf, crc64(&payload));
        self.buf.extend_from_slice(&payload);
        self.records += 1;
    }

    /// Records appended (or recovered by the scanner).
    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Scan a raw journal region: decode records front to back, stop at
    /// the first frame that is short, over-long, fails its checksum or
    /// does not decode — everything from there on is a torn tail and is
    /// truncated, not replayed. Returns the clean journal plus what the
    /// repair found.
    pub fn scan_and_repair(raw: &[u8]) -> (Journal, RepairStats) {
        let mut at = 0usize;
        let mut records = 0u64;
        while let Some(len) = get_u32(raw, at) {
            let len = len as usize;
            if len > MAX_RECORD_BYTES {
                break;
            }
            let Some(want) = get_u64(raw, at + 4) else {
                break;
            };
            let Some(payload) = raw.get(at + FRAME_HEADER..at + FRAME_HEADER + len) else {
                break;
            };
            if crc64(payload) != want || Record::decode_payload(payload).is_none() {
                break;
            }
            at += FRAME_HEADER + len;
            records += 1;
        }
        let journal = Journal {
            buf: raw[..at].to_vec(),
            records,
        };
        let stats = RepairStats {
            records,
            truncated_bytes: raw.len() - at,
            torn: at != raw.len(),
        };
        (journal, stats)
    }

    /// Iterate the (already clean) records front to back.
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        let mut at = 0usize;
        std::iter::from_fn(move || {
            let len = get_u32(&self.buf, at)? as usize;
            let payload = &self.buf[at + FRAME_HEADER..at + FRAME_HEADER + len];
            at += FRAME_HEADER + len;
            Record::decode_payload(payload)
        })
    }
}

/// The CRC-64-protected header in front of a persisted journal image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Which manager rank's lane this is.
    pub shard: u32,
    /// Placement epoch at unload time.
    pub epoch: u64,
    /// Records the journal held at unload time; a clean load must
    /// recover exactly this many.
    pub records: u64,
    /// Journal region length in bytes at unload time.
    pub journal_bytes: u64,
}

impl Superblock {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SUPERBLOCK_BYTES);
        put_u64(&mut out, JOURNAL_MAGIC);
        put_u32(&mut out, JOURNAL_VERSION);
        put_u32(&mut out, self.shard);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.records);
        put_u64(&mut out, self.journal_bytes);
        let crc = crc64(&out);
        put_u64(&mut out, crc);
        debug_assert_eq!(out.len(), SUPERBLOCK_BYTES);
        out
    }

    /// `None` when the magic, version or header checksum is wrong — a
    /// superblock that cannot be trusted protects nothing, so the whole
    /// image is rejected rather than scan-repaired.
    pub fn decode(buf: &[u8]) -> Option<Superblock> {
        if buf.len() < SUPERBLOCK_BYTES {
            return None;
        }
        let body = &buf[..SUPERBLOCK_BYTES - 8];
        if get_u64(buf, SUPERBLOCK_BYTES - 8)? != crc64(body) {
            return None;
        }
        if get_u64(buf, 0)? != JOURNAL_MAGIC || get_u32(buf, 8)? != JOURNAL_VERSION {
            return None;
        }
        Some(Superblock {
            shard: get_u32(buf, 12)?,
            epoch: get_u64(buf, 16)?,
            records: get_u64(buf, 24)?,
            journal_bytes: get_u64(buf, 32)?,
        })
    }
}

/// Serialize one lane as a self-describing image: superblock + journal.
/// This is the `unload` path.
pub fn encode_image(sb: &Superblock, journal: &Journal) -> Vec<u8> {
    let mut out = sb.encode();
    out.extend_from_slice(journal.bytes());
    out
}

/// The `load` path: decode the superblock (rejecting an untrusted
/// header outright), scan-and-repair the journal region, and replay it
/// into a [`ShardMeta`]. `None` only when the superblock itself is bad.
pub fn load_image(image: &[u8]) -> Option<(Superblock, ShardMeta, RepairStats)> {
    let sb = Superblock::decode(image)?;
    let (journal, stats) = Journal::scan_and_repair(&image[SUPERBLOCK_BYTES..]);
    let meta = ShardMeta::replay(journal.iter());
    Some((sb, meta, stats))
}

/// One benefactor's slot bitmap as reconstructed from the journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LaneLeaf {
    words: Vec<u64>,
    len: usize,
    /// True when the bitmap came from a [`Record::LeafCheckpoint`] — an
    /// authoritative allocator snapshot that also covers reservations
    /// (and carries set padding bits), so it is a *superset* of what the
    /// home map alone implies.
    checkpointed: bool,
}

/// Mask selecting the low `n` bits of a word (`n <= 64`).
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// One chunk's authoritative copies, primary first, with their slots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Homes {
    ids: Vec<BenefactorId>,
    slots: Vec<usize>,
}

/// Every chunk's homes and parity group: the manager's live table, and
/// what replaying a lane gives back for its rank's keyspace — both built
/// by [`Placement::apply`], the one writer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Placement {
    homes: IdMap<ChunkId, Homes>,
    groups: IdMap<ChunkId, GroupRef>,
}

impl Placement {
    /// Apply one record (`EpochBump` and `LeafCheckpoint` change nothing).
    pub fn apply(&mut self, r: &Record) {
        match *r {
            Record::Place {
                chunk,
                benefactor,
                slot,
            } => {
                let h = self.homes.entry(chunk).or_default();
                h.ids.push(BenefactorId(benefactor));
                h.slots.push(slot);
            }
            Record::Free {
                chunk,
                benefactor,
                slot,
            } => {
                let Some(h) = self.homes.get_mut(&chunk) else {
                    return;
                };
                let home = (BenefactorId(benefactor), slot);
                if let Some(at) = (0..h.ids.len()).find(|&i| (h.ids[i], h.slots[i]) == home) {
                    h.ids.remove(at);
                    h.slots.remove(at);
                }
                if h.ids.is_empty() {
                    self.homes.remove(&chunk);
                }
            }
            Record::GroupLink {
                chunk,
                file,
                group,
                member,
            } => {
                let (file, group, member) = (FileId(file), group as usize, member as usize);
                self.groups.insert(
                    chunk,
                    GroupRef {
                        file,
                        group,
                        member,
                    },
                );
            }
            Record::GroupUnlink { chunk } => {
                self.groups.remove(&chunk);
            }
            Record::EpochBump { .. } | Record::LeafCheckpoint { .. } => {}
        }
    }

    /// Every benefactor holding an authoritative copy of `c`, primary first.
    pub fn homes(&self, c: ChunkId) -> Option<&[BenefactorId]> {
        self.homes.get(&c).map(|h| h.ids.as_slice())
    }

    /// The slot `c`'s copy on `home` is stored in, if `home` is listed.
    pub fn slot_on(&self, c: ChunkId, home: BenefactorId) -> Option<usize> {
        let h = self.homes.get(&c)?;
        h.ids.iter().position(|&b| b == home).map(|at| h.slots[at])
    }

    /// The parity group `c` is a member of, if any.
    pub fn group(&self, c: ChunkId) -> Option<GroupRef> {
        self.groups.get(&c).copied()
    }

    /// Every chunk with a home, with its homes' benefactors and slots.
    pub fn chunks(&self) -> impl Iterator<Item = (ChunkId, &[BenefactorId], &[usize])> {
        self.homes
            .iter()
            .map(|(&c, h)| (c, h.ids.as_slice(), h.slots.as_slice()))
    }

    /// Every grouped chunk, with its group.
    pub fn groups(&self) -> impl Iterator<Item = (ChunkId, GroupRef)> + '_ {
        self.groups.iter().map(|(&c, &g)| (c, g))
    }

    /// The part of the table whose chunks `keep` selects (a rank's keyspace).
    pub fn restricted(&self, keep: impl Fn(ChunkId) -> bool) -> Placement {
        let homes = self.homes.iter().filter(|(&c, _)| keep(c));
        let groups = self.groups.iter().filter(|(&c, _)| keep(c));
        Placement {
            homes: homes.map(|(&c, h)| (c, h.clone())).collect(),
            groups: groups.map(|(&c, &g)| (c, g)).collect(),
        }
    }
}

/// Metadata state rebuilt by replaying one shard's journal: its
/// [`Placement`], plus what only replay needs — the slot bitmaps the
/// records imply and the highest epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMeta {
    /// Homes and group membership, folded by [`Placement::apply`].
    pub placement: Placement,
    /// benefactor → journaled leaf bitmap. Grows as records mention
    /// higher slots.
    leaf: BTreeMap<usize, LaneLeaf>,
    /// Highest placement epoch seen in an `EpochBump` record.
    pub epoch: u64,
}

impl ShardMeta {
    pub fn replay(records: impl Iterator<Item = Record>) -> ShardMeta {
        let mut meta = ShardMeta::default();
        records.for_each(|r| meta.apply(&r));
        meta
    }

    pub fn apply(&mut self, r: &Record) {
        match r {
            Record::Place {
                benefactor, slot, ..
            } => self.set_bit(*benefactor, *slot, true),
            Record::Free {
                benefactor, slot, ..
            } => self.set_bit(*benefactor, *slot, false),
            Record::EpochBump { epoch } => self.epoch = self.epoch.max(*epoch),
            Record::LeafCheckpoint {
                benefactor,
                len,
                leaf,
            } => {
                self.leaf.insert(
                    *benefactor,
                    LaneLeaf {
                        words: leaf.clone(),
                        len: *len,
                        checkpointed: true,
                    },
                );
            }
            Record::GroupLink { .. } | Record::GroupUnlink { .. } => {}
        }
        self.placement.apply(r);
    }

    fn set_bit(&mut self, benefactor: usize, slot: usize, on: bool) {
        let l = self.leaf.entry(benefactor).or_default();
        if slot >= l.len {
            l.len = slot + 1;
            l.words.resize(l.len.div_ceil(64), 0);
        }
        if on {
            l.words[slot / 64] |= 1 << (slot % 64);
        } else {
            l.words[slot / 64] &= !(1 << (slot % 64));
        }
    }

    /// Rebuild a live allocator for `benefactor` from the journaled leaf
    /// bitmap — [`BitAlloc::from_leaf`], the designated crash-recovery
    /// path — sized up to `len` slots so it can allocate beyond the
    /// journaled high-water mark.
    pub fn rebuild_alloc(&self, benefactor: usize, len: usize) -> BitAlloc {
        match self.leaf.get(&benefactor) {
            Some(l) => {
                let want = len.max(l.len);
                let mut words = l.words.clone();
                // Normalize: clear anything at or past the journaled
                // length (a checkpoint carries set padding bits), grow to
                // the wanted size, then set the new padding — exactly the
                // invariant `from_leaf` demands.
                for (w, word) in words.iter_mut().enumerate() {
                    let in_range = l.len.saturating_sub(w * 64).min(64);
                    *word &= low_bits(in_range);
                }
                words.resize(want.div_ceil(64).max(1), 0);
                for i in want..words.len() * 64 {
                    words[i / 64] |= 1 << (i % 64);
                }
                BitAlloc::from_leaf(words, want)
            }
            None => BitAlloc::new(len),
        }
    }

    /// Journaled live allocations on `benefactor` (set bits within the
    /// journaled length; checkpoint padding does not count).
    pub fn allocated_on(&self, benefactor: usize) -> usize {
        self.leaf.get(&benefactor).map_or(0, |l| {
            l.words
                .iter()
                .enumerate()
                .map(|(w, &word)| {
                    let in_range = l.len.saturating_sub(w * 64).min(64);
                    (word & low_bits(in_range)).count_ones() as usize
                })
                .sum()
        })
    }

    /// Internal cross-consistency: every home's bit is set in its
    /// benefactor's bitmap, every rebuilt allocator passes its own
    /// invariant sweep, and — for bitmaps built purely from place/free
    /// records — the set-bit population equals the number of distinct
    /// (benefactor, slot) homes there. (A checkpointed bitmap is an
    /// authoritative superset: it also covers reservations, so only the
    /// subset direction holds.)
    pub fn assert_consistent(&self) {
        let mut per_benefactor: BTreeMap<usize, usize> = BTreeMap::new();
        for (chunk, ids, slots) in self.placement.chunks() {
            for (b, &s) in ids.iter().map(|b| b.0).zip(slots) {
                let l = self.leaf.get(&b).expect("home without bitmap");
                assert!(s < l.len, "{chunk} home slot {s} beyond the bitmap");
                assert!(
                    l.words[s / 64] & (1 << (s % 64)) != 0,
                    "{chunk} home ({b}, {s}) not allocated in the bitmap"
                );
                *per_benefactor.entry(b).or_default() += 1;
            }
        }
        for (&b, l) in &self.leaf {
            let alloc = self.rebuild_alloc(b, l.len);
            alloc.assert_consistent();
            let set = self.allocated_on(b);
            if !l.checkpointed {
                assert_eq!(
                    set,
                    per_benefactor.get(&b).copied().unwrap_or(0),
                    "benefactor {b}: bitmap population disagrees with the home map"
                );
            }
            assert_eq!(alloc.free_count(), l.len - set);
        }
    }
}

/// The per-rank journal fleet a journaling manager owns: one lane per
/// manager rank, each holding its rank's keyspace — a chunk-keyed record
/// lands in the lane of the chunk's owner in the manager's rank ring (one
/// lane, trivially, for the paper's manager). Appends bump the shared
/// `store.journal_records` counter — registered lazily with the rest of
/// the HA set, so knobs-off stat snapshots never see it.
#[derive(Debug)]
pub struct JournalSet {
    lanes: Vec<Journal>,
    records: Counter,
}

impl JournalSet {
    pub fn new(lanes: usize, records: Counter) -> Self {
        assert!(lanes > 0, "a journal set needs at least one lane");
        JournalSet {
            lanes: (0..lanes).map(|_| Journal::new()).collect(),
            records,
        }
    }

    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    pub fn lane(&self, k: usize) -> &Journal {
        &self.lanes[k]
    }

    /// Append a record to rank `lane`'s lane.
    pub fn append(&mut self, lane: usize, r: &Record) {
        self.lanes[lane].append(r);
        self.records.inc();
    }

    /// Total records across every lane.
    pub fn total_records(&self) -> u64 {
        self.lanes.iter().map(|l| l.records()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shardmgr::HashRing;

    fn all_variants() -> Vec<Record> {
        vec![
            Record::Place {
                chunk: ChunkId(7),
                benefactor: 2,
                slot: 513,
            },
            Record::Free {
                chunk: ChunkId(7),
                benefactor: 2,
                slot: 513,
            },
            Record::EpochBump { epoch: 42 },
            Record::GroupLink {
                chunk: ChunkId(9),
                file: 3,
                group: 1,
                member: 5,
            },
            Record::GroupUnlink { chunk: ChunkId(9) },
            Record::LeafCheckpoint {
                benefactor: 0,
                len: 130,
                leaf: vec![u64::MAX, 0b1011, 0x8000_0000_0000_0001],
            },
            Record::LeafCheckpoint {
                benefactor: 3,
                len: 0,
                leaf: vec![],
            },
        ]
    }

    #[test]
    fn codec_round_trips_every_variant() {
        for r in all_variants() {
            let bytes = r.encode_payload();
            assert_eq!(Record::decode_payload(&bytes), Some(r));
        }
    }

    #[test]
    fn journal_appends_and_iterates_in_order() {
        let mut j = Journal::new();
        let recs = all_variants();
        for r in &recs {
            j.append(r);
        }
        assert_eq!(j.records(), recs.len() as u64);
        assert_eq!(j.iter().collect::<Vec<_>>(), recs);
        // A clean scan recovers everything and truncates nothing.
        let (back, stats) = Journal::scan_and_repair(j.bytes());
        assert_eq!(back.records(), recs.len() as u64);
        assert!(!stats.torn);
        assert_eq!(stats.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let mut j = Journal::new();
        for r in all_variants() {
            j.append(&r);
        }
        let clean = j.byte_len();
        // Append one more record, then tear its last 3 bytes off.
        let mut raw = j.bytes().to_vec();
        let mut tail = Journal::new();
        tail.append(&Record::EpochBump { epoch: 99 });
        raw.extend_from_slice(&tail.bytes()[..tail.byte_len() - 3]);
        let (back, stats) = Journal::scan_and_repair(&raw);
        assert_eq!(back.records(), all_variants().len() as u64);
        assert_eq!(back.byte_len(), clean);
        assert!(stats.torn);
        assert_eq!(stats.truncated_bytes, tail.byte_len() - 3);
    }

    #[test]
    fn bit_rotted_final_record_is_dropped() {
        let mut j = Journal::new();
        for r in all_variants() {
            j.append(&r);
        }
        let mut raw = j.bytes().to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        let (back, stats) = Journal::scan_and_repair(&raw);
        assert_eq!(back.records(), all_variants().len() as u64 - 1);
        assert!(stats.torn);
    }

    #[test]
    fn garbage_length_prefix_stops_the_scan() {
        let mut j = Journal::new();
        j.append(&Record::EpochBump { epoch: 1 });
        let mut raw = j.bytes().to_vec();
        put_u32(&mut raw, (MAX_RECORD_BYTES + 1) as u32);
        put_u64(&mut raw, 0);
        let (back, stats) = Journal::scan_and_repair(&raw);
        assert_eq!(back.records(), 1);
        assert!(stats.torn);
        assert_eq!(stats.truncated_bytes, 12);
    }

    #[test]
    fn superblock_round_trip_and_rejection() {
        let sb = Superblock {
            shard: 3,
            epoch: 17,
            records: 40,
            journal_bytes: 1234,
        };
        let bytes = sb.encode();
        assert_eq!(bytes.len(), SUPERBLOCK_BYTES);
        assert_eq!(Superblock::decode(&bytes), Some(sb));
        // Any flipped header byte fails the CRC.
        for i in 0..SUPERBLOCK_BYTES {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert_eq!(Superblock::decode(&bad), None, "flip at byte {i}");
        }
        assert_eq!(Superblock::decode(&bytes[..10]), None, "short header");
    }

    #[test]
    fn image_load_replays_and_reports_repair() {
        let mut j = Journal::new();
        j.append(&Record::Place {
            chunk: ChunkId(1),
            benefactor: 0,
            slot: 4,
        });
        j.append(&Record::Place {
            chunk: ChunkId(2),
            benefactor: 1,
            slot: 0,
        });
        j.append(&Record::Free {
            chunk: ChunkId(1),
            benefactor: 0,
            slot: 4,
        });
        let sb = Superblock {
            shard: 0,
            epoch: 5,
            records: j.records(),
            journal_bytes: j.byte_len() as u64,
        };
        let mut image = encode_image(&sb, &j);
        let (sb2, meta, stats) = load_image(&image).expect("clean image loads");
        assert_eq!(sb2, sb);
        assert!(!stats.torn);
        let b1 = BenefactorId(1);
        assert_eq!(meta.placement.homes(ChunkId(2)), Some(&[b1][..]));
        assert_eq!(meta.placement.slot_on(ChunkId(2), b1), Some(0));
        assert_eq!(meta.placement.homes(ChunkId(1)), None, "freed chunk gone");
        meta.assert_consistent();
        // Tear the image mid-journal: the superblock still loads, the
        // tail truncates, and the replayed state is the shorter prefix.
        image.truncate(image.len() - 5);
        let (_, meta2, stats2) = load_image(&image).expect("torn image still loads");
        assert!(stats2.torn);
        assert_eq!(stats2.records, 2);
        assert!(
            meta2.placement.homes(ChunkId(1)).is_some(),
            "free was torn off"
        );
        meta2.assert_consistent();
    }

    #[test]
    fn replay_rebuilds_allocator_via_from_leaf() {
        let mut meta = ShardMeta::default();
        for s in [0usize, 3, 64, 130] {
            meta.apply(&Record::Place {
                chunk: ChunkId(s as u64),
                benefactor: 1,
                slot: s,
            });
        }
        meta.apply(&Record::Free {
            chunk: ChunkId(3),
            benefactor: 1,
            slot: 3,
        });
        let alloc = meta.rebuild_alloc(1, 256);
        alloc.assert_consistent();
        assert_eq!(alloc.len(), 256);
        assert_eq!(alloc.allocated(), 3);
        assert!(alloc.is_allocated(0) && alloc.is_allocated(64) && alloc.is_allocated(130));
        assert!(!alloc.is_allocated(3));
        meta.assert_consistent();
    }

    #[test]
    fn journal_set_routes_by_ring_and_counts() {
        let stats = simcore::StatsRegistry::new();
        let ring = HashRing::new(4, 16, 9);
        let mut set = JournalSet::new(4, stats.counter("store.journal_records"));
        for c in 0..64u64 {
            let chunk = ChunkId(c);
            set.append(
                ring.owner_of_chunk(chunk),
                &Record::Place {
                    chunk,
                    benefactor: 0,
                    slot: c as usize,
                },
            );
        }
        set.append(2, &Record::EpochBump { epoch: 1 });
        assert_eq!(set.total_records(), 65);
        assert_eq!(stats.get("store.journal_records"), 65);
        // A lane is its rank's keyspace: every chunk's records are in its
        // ring owner's lane, and only there.
        for c in 0..64u64 {
            let lane = ring.owner_of_chunk(ChunkId(c));
            for k in 0..set.lanes() {
                let holds = set
                    .lane(k)
                    .iter()
                    .any(|r| matches!(r, Record::Place { chunk, .. } if chunk == ChunkId(c)));
                assert_eq!(holds, k == lane, "chunk#{c} in lane {k}");
            }
        }
    }
}
