//! # journal — the manager's metadata as a log (DESIGN.md §16)
//!
//! Every manager-rank lane is a CRC-64-protected **superblock** plus an
//! append-only **journal** of self-checksummed, length-prefixed records:
//! one per change of the manager's metadata — files, their geometry,
//! slots, links, lifetimes and stale-parity flags; chunk births, digests
//! and homes; placement-epoch bumps. The format follows the SPDK
//! BlobStore discipline the design doc cites: metadata is explicitly
//! synced in record-sized units, and load-time recovery *scans and
//! repairs* — a torn tail (a record cut short by the crash, or whose
//! checksum no longer matches) is detected and truncated, never replayed.
//!
//! The codec is deliberately tiny and deterministic: fixed-width
//! little-endian fields, no serde, no host-dependent layout — the same
//! state always serializes to the same bytes, so journal images can be
//! diffed across runs like every other artifact in this codebase. Each
//! record is declared once, in the `records!` table: its tag, its fields
//! in wire order and the width each `usize` travels as; [`Record`],
//! [`Record::encode_into`] and [`Record::decode_payload`] are generated
//! from it, and each field type's layout is one `Field` put/get pair.
//!
//! [`MetaState::apply`] is the one writer of the manager's metadata:
//! `Manager::commit` writes the live state with it, and replay folds a
//! lane into a [`ShardMeta`] with it — a [`MetaState`] of the lane's
//! keyspace, plus per-benefactor leaf slot bitmaps (live allocators again
//! through [`BitAlloc::from_leaf`], DESIGN.md §13's crash-recovery path)
//! and the placement epoch. A standby takeover installs that replay
//! (`AggregateStore::failover_manager`).

use crate::bitalloc::BitAlloc;
use crate::crc::crc64;
use crate::ids::{BenefactorId, ChunkId, FileId, IdMap};
use crate::manager::{ChunkMeta, FileMeta, GroupRef, Member, PlacementPolicy, Slot};
use simcore::{Counter, VTime};
use std::collections::{BTreeMap, HashMap};

/// Superblock magic: "NVMJRNL1" read as a little-endian u64.
pub const JOURNAL_MAGIC: u64 = 0x314C_4E52_4A4D_564E;
/// On-media format version: 2 since parity-group membership is derived
/// from the slots rather than journaled.
pub const JOURNAL_VERSION: u32 = 2;
/// Hard cap on one record's payload. A length prefix above this is
/// garbage by definition (torn or rotted), so the scanner truncates
/// there instead of trusting an absurd length.
pub const MAX_RECORD_BYTES: usize = 64 * 1024;
/// Encoded superblock size: magic + version + shard + epoch + records +
/// journal_bytes + CRC-64 over all of the above.
pub const SUPERBLOCK_BYTES: usize = 8 + 4 + 4 + 8 + 8 + 8 + 8;

/// Frame header per record: payload length (u32) + payload CRC-64.
const FRAME_HEADER: usize = 4 + 8;

/// Reads an encoding's fields front to back.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }
}

/// One field type's wire layout, written once: `put` appends it, `get`
/// reads it back off the front (`None` when it is short or malformed).
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Option<Self>;
}

/// A field of one width: a tail vector of it is sized before anything is
/// allocated.
trait Fixed: Field {
    const WIDTH: usize;
}

/// Fixed-width little-endian integers: the log's only byte-order code.
macro_rules! int_field {
    ($($t:ty),+) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                Some(<$t>::from_le_bytes(r.take(size_of::<$t>())?.try_into().ok()?))
            }
        }
        impl Fixed for $t {
            const WIDTH: usize = size_of::<$t>();
        }
    )+};
}
int_field!(u8, u32, u64);

/// Fields back to back.
macro_rules! tuple_field {
    ($($n:tt $T:ident),+) => {
        impl<$($T: Field),+> Field for ($($T,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$n.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                Some(($(<$T as Field>::get(r)?,)+))
            }
        }
    };
}
tuple_field!(0 A, 1 B);
tuple_field!(0 A, 1 B, 2 C);

/// Chunk and file ids travel as their 8-byte numbers.
macro_rules! id_field {
    ($($id:ident),+) => {$(
        impl Field for $id {
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                u64::get(r).map($id)
            }
        }
    )+};
}
id_field!(ChunkId, FileId);

/// A benefactor id travels as 4 bytes.
impl Field for BenefactorId {
    fn put(&self, out: &mut Vec<u8>) {
        (self.0 as u32).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        u32::get(r).map(|b| BenefactorId(b as usize))
    }
}

impl Fixed for BenefactorId {
    const WIDTH: usize = 4;
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u8).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        u8::get(r).map(|b| b != 0)
    }
}

/// 9 bytes: 0 and a zero word for round-robin, 1 and the seed for a
/// seeded permutation.
impl Field for PlacementPolicy {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            PlacementPolicy::RoundRobin => (0u8, 0u64),
            PlacementPolicy::RandomPermutation { seed } => (1, seed),
        }
        .put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match <(u8, u64)>::get(r)? {
            (0, _) => PlacementPolicy::RoundRobin,
            (_, seed) => PlacementPolicy::RandomPermutation { seed },
        })
    }
}

/// 9 bytes: 0 and slot `idx` for a data slot, 1, `g` and `p` for parity
/// member `p` of group `g`.
impl Field for Member {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            Member::Data(idx) => (0u8, idx as u32, 0u32),
            Member::Parity(g, p) => (1, g as u32, p as u32),
        }
        .put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match <(u8, u32, u32)>::get(r)? {
            (0, idx, _) => Member::Data(idx as usize),
            (_, g, p) => Member::Parity(g as usize, p as usize),
        })
    }
}

/// 9 bytes: 0 and a zero word for none, 1 and the nanoseconds for a time.
impl Field for Option<VTime> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.is_some() as u8, self.map_or(0, VTime::as_nanos)).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match <(u8, u64)>::get(r)? {
            (0, _) => None,
            (_, ns) => Some(VTime::from_nanos(ns)),
        })
    }
}

/// A u32 byte count, then the bytes; only UTF-8 decodes.
impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = u32::get(r)? as usize;
        String::from_utf8(r.take(n)?.to_vec()).ok()
    }
}

/// A u32 count, then the items, ending the payload: the count must match
/// the bytes left before anything is allocated, so a rotted count cannot
/// allocate.
impl<T: Fixed> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        self.iter().for_each(|x| x.put(out));
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = u32::get(r)? as usize;
        (r.0.len() == n * T::WIDTH).then_some(())?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

/// A field's put or get, through the wire type a `usize` travels as.
macro_rules! wire {
    (put $out:ident, $v:ident as $w:ty) => {
        Field::put(&(*$v as $w), $out)
    };
    (put $out:ident, $v:ident) => {
        Field::put($v, $out)
    };
    (get $r:ident, $t:ty as $w:ty) => {
        <$w as Field>::get($r)? as $t
    };
    (get $r:ident, $t:ty) => {
        <$t as Field>::get($r)?
    };
}

/// Declares [`Record`] and generates its codec from one table: each
/// variant is `Name = tag { field: Type, .. }` with its fields in wire
/// order after the tag byte.
macro_rules! records {
    (
        $(#[$attr:meta])*
        pub enum Record {$(
            $(#[$doc:meta])*
            $name:ident = $tag:literal { $($field:ident: $ty:ty $(as $wire:ty)?),+ $(,)? }
        ),+ $(,)?}
    ) => {
        $(#[$attr])*
        pub enum Record {$(
            $(#[$doc])*
            $name { $($field: $ty),+ },
        )+}

        impl Record {
            /// Serialize the payload (tag + fields, little-endian, no
            /// framing) onto `out` and return its length — or, for a
            /// payload over [`MAX_RECORD_BYTES`], leave `out` as it was
            /// and return the length as `Err`: the one place the cap is
            /// checked.
            pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<usize, usize> {
                let at = out.len();
                match self {$(
                    Record::$name { $($field),+ } => {
                        out.push($tag);
                        $(wire!(put out, $field $(as $wire)?);)+
                    }
                )+}
                let len = out.len() - at;
                if len > MAX_RECORD_BYTES {
                    out.truncate(at);
                    return Err(len);
                }
                Ok(len)
            }

            /// Decode one payload. `None` on unknown tag or malformed
            /// fields — the scanner treats that exactly like a checksum
            /// mismatch. A payload is well-formed only if it is exactly
            /// the encoding of what it decodes to: no missing field, no
            /// trailing byte, no flag or kind byte but the one encoded,
            /// no name that is not UTF-8.
            pub fn decode_payload(buf: &[u8]) -> Option<Record> {
                let r = &mut Reader(buf);
                let rec = match u8::get(r)? {
                    $($tag => Record::$name { $($field: wire!(get r, $ty $(as $wire)?)),+ },)+
                    _ => return None,
                };
                let mut back = Vec::with_capacity(buf.len());
                (rec.encode_into(&mut back) == Ok(buf.len()) && back == buf).then_some(rec)
            }
        }
    };
}

records! {
    /// One journaled metadata mutation.
    ///
    /// Placement is journaled at (chunk, benefactor, slot) granularity —
    /// the exact unit the benefactor's slot allocator hands out — so
    /// replay can rebuild both the home map and the slot bitmaps.
    /// Chunk-keyed records ([`Record::chunk`]) sit in the lane of the
    /// chunk's owner; the rest — the namespace — in lane 0. Tags are
    /// explicit (not derived from the order) because they are an
    /// on-media format. Tags 4 and 5, the parity-group link and unlink
    /// records of version 1, are retired and never reused: group
    /// membership is derived from the slots.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Record {
        /// `chunk` gained an authoritative copy in `slot` on `benefactor`.
        Place = 1 { chunk: ChunkId, benefactor: usize as u32, slot: usize as u32 },
        /// The copy of `chunk` in `slot` on `benefactor` is no longer
        /// authoritative (freed, re-homed away, or its file deleted). A
        /// chunk whose last home is freed is gone.
        Free = 2 { chunk: ChunkId, benefactor: usize as u32, slot: usize as u32 },
        /// The placement epoch was bumped to `epoch` by a cold restart of
        /// this rank (reboot or standby takeover).
        EpochBump = 3 { epoch: u64 },
        /// Compacted checkpoint of one benefactor's leaf slot bitmap, as
        /// written by `unload`: `len` slots in `leaf` words. Replay feeds
        /// this straight to [`BitAlloc::from_leaf`]. The word vector may
        /// be empty (a benefactor with zero capacity slots) — the codec's
        /// zero-length edge case.
        LeafCheckpoint = 6 { benefactor: usize as u32, len: usize as u64, leaf: Vec<u64> },
        /// File `file` was created as `name`.
        FileCreate = 7 { file: FileId, name: String },
        /// `fallocate` sized `file` and picked its stripe; `cursor` is the
        /// stripe cursor the pick left.
        Fallocate = 8 {
            file: FileId,
            size: u64,
            placement: PlacementPolicy,
            replicas: usize as u32,
            group_data: usize as u32,
            parity: usize as u32,
            cursor: usize as u64,
            stripe: Vec<BenefactorId>,
        },
        /// `file` and its name are gone; each chunk it held loses a
        /// reference, and the parity groups it owns go.
        FileDelete = 9 { file: FileId },
        /// Every slot of `src` was appended to `dst` (the checkpoint link
        /// of §III-E): chunks by reference, unwritten slots as holes.
        Link = 10 { dst: FileId, src: FileId },
        /// `file`'s lifetime was set or cleared.
        Lifetime = 11 { file: FileId, expires_at: Option<VTime> },
        /// Member `member` of `file` now holds `chunk`: in a member of a
        /// parity group `chunk` takes the group over from the chunk it
        /// replaces, and a parity member is no longer stale.
        SlotSet = 12 { file: FileId, member: Member, chunk: ChunkId },
        /// Parity member `parity` of group `group` of `file` was flagged
        /// (or cleared) stale.
        ParityStale = 13 { file: FileId, group: usize as u32, parity: usize as u32, stale: bool },
        /// `chunk` was born with replica target `target` and digest `crc`.
        ChunkBirth = 14 { chunk: ChunkId, target: usize as u32, crc: u64 },
        /// `chunk`'s recorded digest is now `crc`.
        Digest = 15 { chunk: ChunkId, crc: u64 },
    }
}

impl Record {
    /// The chunk a chunk-keyed record is about; `None` for the namespace,
    /// an epoch bump and a leaf checkpoint.
    pub fn chunk(&self) -> Option<ChunkId> {
        match *self {
            Record::Place { chunk, .. }
            | Record::Free { chunk, .. }
            | Record::ChunkBirth { chunk, .. }
            | Record::Digest { chunk, .. } => Some(chunk),
            _ => None,
        }
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

    /// Append one record: `[len: u32][crc64(payload): u64][payload]`,
    /// encoded straight into the log.
    pub fn append(&mut self, r: &Record) {
        let at = self.buf.len();
        let len = r
            .encode_into(&mut self.buf)
            .expect("record payload over the cap");
        let crc = crc64(&self.buf[at..]);
        (len as u32, crc).put(&mut self.buf);
        // The header goes in front of the payload it describes.
        self.buf[at..].rotate_right(FRAME_HEADER);
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
        let r = &mut Reader(raw);
        let (mut at, mut records) = (0usize, 0u64);
        while let Some((crc, payload)) = frame(r) {
            if crc64(payload) != crc || Record::decode_payload(payload).is_none() {
                break;
            }
            at = raw.len() - r.0.len();
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
        let mut r = Reader(&self.buf);
        std::iter::from_fn(move || Record::decode_payload(frame(&mut r)?.1))
    }
}

/// The next frame off `r`: the checksum its header holds and its payload,
/// or `None` for a frame that is short or over the cap.
fn frame<'a>(r: &mut Reader<'a>) -> Option<(u64, &'a [u8])> {
    let (len, crc) = <(u32, u64)>::get(r)?;
    let len = (len as usize <= MAX_RECORD_BYTES).then_some(len as usize)?;
    Some((crc, r.take(len)?))
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

/// A superblock's fields before its CRC: magic, version and shard, then
/// epoch, records and journal bytes.
type SuperblockBody = ((u64, u32, u32), (u64, u64, u64));

impl Superblock {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SUPERBLOCK_BYTES);
        let head = (JOURNAL_MAGIC, JOURNAL_VERSION, self.shard);
        (head, (self.epoch, self.records, self.journal_bytes)).put(&mut out);
        crc64(&out).put(&mut out);
        debug_assert_eq!(out.len(), SUPERBLOCK_BYTES);
        out
    }

    /// `None` when the magic, version or header checksum is wrong — a
    /// superblock that cannot be trusted protects nothing, so the whole
    /// image is rejected rather than scan-repaired.
    pub fn decode(buf: &[u8]) -> Option<Superblock> {
        let (body, crc) = buf.get(..SUPERBLOCK_BYTES)?.split_at(SUPERBLOCK_BYTES - 8);
        (u64::get(&mut Reader(crc))? == crc64(body)).then_some(())?;
        let ((magic, version, shard), (epoch, records, journal_bytes)) =
            SuperblockBody::get(&mut Reader(body))?;
        let sb = Superblock {
            shard,
            epoch,
            records,
            journal_bytes,
        };
        (magic == JOURNAL_MAGIC && version == JOURNAL_VERSION).then_some(sb)
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
/// into a [`ShardMeta`] of a store of `chunk_size` chunks. `None` only
/// when the superblock itself is bad.
pub fn load_image(image: &[u8], chunk_size: u64) -> Option<(Superblock, ShardMeta, RepairStats)> {
    let sb = Superblock::decode(image)?;
    let (journal, stats) = Journal::scan_and_repair(&image[SUPERBLOCK_BYTES..]);
    let meta = ShardMeta::replay(chunk_size, journal.iter());
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
pub struct Homes {
    pub ids: Vec<BenefactorId>,
    pub slots: Vec<usize>,
}

/// The namespace — rank 0's keyspace: files and their names, the
/// reference counts and parity groups their slots imply, and the id and
/// stripe cursors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Namespace {
    pub files: IdMap<FileId, FileMeta>,
    pub by_name: HashMap<String, FileId>,
    /// Derived: how many slots, in every file, hold each chunk.
    pub refs: IdMap<ChunkId, u32>,
    /// Derived: the parity group of each chunk a grouped member took
    /// (DESIGN.md §15 reverse map), until a later chunk replaces it there
    /// or the group's file is deleted.
    pub groups: IdMap<ChunkId, GroupRef>,
    pub next_file: u64,
    /// Advanced by the slot that installs a chunk: a chunk is born (in
    /// its owner's lane) right before its first slot takes it.
    pub next_chunk: u64,
    pub stripe_cursor: usize,
}

/// The manager's metadata: the namespace, and every chunk's birth record
/// (target, digest) and homes with their slots. The
/// manager's live state and a lane's replay alike. Its tables are read in
/// place; [`MetaState::apply`] is their one writer (the manager hands out
/// only `&MetaState`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetaState {
    pub chunk_size: u64,
    pub ns: Namespace,
    pub chunks: IdMap<ChunkId, ChunkMeta>,
    pub homes: IdMap<ChunkId, Homes>,
}

impl MetaState {
    pub fn new(chunk_size: u64) -> Self {
        MetaState {
            chunk_size,
            ..MetaState::default()
        }
    }

    /// Apply one record (`EpochBump` and `LeafCheckpoint` change nothing).
    /// A record naming what the state does not hold changes nothing.
    pub fn apply(&mut self, r: &Record) {
        let ns = &mut self.ns;
        match r {
            Record::Place {
                chunk,
                benefactor,
                slot,
            } => {
                let h = self.homes.entry(*chunk).or_default();
                h.ids.push(BenefactorId(*benefactor));
                h.slots.push(*slot);
            }
            Record::Free {
                chunk,
                benefactor,
                slot,
            } => {
                let Some(h) = self.homes.get_mut(chunk) else {
                    return;
                };
                let home = (BenefactorId(*benefactor), *slot);
                if let Some(at) = (0..h.ids.len()).find(|&i| (h.ids[i], h.slots[i]) == home) {
                    h.ids.remove(at);
                    h.slots.remove(at);
                }
                if h.ids.is_empty() {
                    self.homes.remove(chunk);
                    self.chunks.remove(chunk);
                }
            }
            Record::EpochBump { .. } | Record::LeafCheckpoint { .. } => {}
            Record::FileCreate { file, name } => {
                ns.by_name.insert(name.clone(), *file);
                let (name, rr) = (name.clone(), PlacementPolicy::RoundRobin);
                let created = FileMeta::sized(0, 1, &[], rr, (1, 1, 0));
                ns.files.insert(*file, FileMeta { name, ..created });
                ns.next_file = ns.next_file.max(file.0 + 1);
            }
            Record::Fallocate {
                file,
                size,
                stripe,
                placement,
                replicas,
                group_data,
                parity,
                cursor,
            } => {
                ns.stripe_cursor = *cursor;
                let Some(meta) = ns.files.get_mut(file) else {
                    return;
                };
                let geometry = (*replicas, *group_data, *parity);
                let sized = FileMeta::sized(*size, self.chunk_size, stripe, *placement, geometry);
                *meta = FileMeta {
                    name: std::mem::take(&mut meta.name),
                    expires_at: meta.expires_at,
                    ..sized
                };
            }
            Record::FileDelete { file } => {
                let Some(meta) = ns.files.remove(file) else {
                    return;
                };
                ns.by_name.remove(&meta.name);
                for (_, slot) in meta.members() {
                    Self::unref(&mut ns.refs, slot);
                }
                // A group dies with the file that owns it, not with a
                // checkpoint that links its chunks.
                ns.groups.retain(|_, g| g.file != *file);
            }
            Record::Link { dst, src } => {
                let (Some(src), true) = (ns.files.get(src), ns.files.contains_key(dst)) else {
                    return;
                };
                let (appended, src_size) = (src.slots.clone(), src.size);
                let dst = ns.files.get_mut(dst).expect("checked above");
                // A linked region is sized in whole chunks.
                dst.size = dst.slots.len() as u64 * self.chunk_size + src_size;
                for slot in appended {
                    dst.slots.push(match slot {
                        Slot::Chunk(c) => {
                            *ns.refs.entry(c).or_default() += 1;
                            slot
                        }
                        Slot::Unmaterialized | Slot::Hole => Slot::Hole,
                    });
                }
            }
            Record::Lifetime { file, expires_at } => {
                if let Some(meta) = ns.files.get_mut(file) {
                    meta.expires_at = *expires_at;
                }
            }
            Record::SlotSet {
                file,
                member,
                chunk,
            } => {
                let Some(meta) = ns.files.get_mut(file) else {
                    return;
                };
                let (grouped, slot) = match *member {
                    Member::Data(idx) => (meta.group_member(idx), meta.slots.get_mut(idx)),
                    Member::Parity(g, p) => {
                        let at = g * meta.parity + p;
                        if let Some(stale) = meta.parity_stale.get_mut(at) {
                            *stale = false;
                        }
                        let grouped = Some((g, meta.group_data + p));
                        (grouped, meta.parity_slots.get_mut(at))
                    }
                };
                let Some(slot) = slot else {
                    return;
                };
                let old = std::mem::replace(slot, Slot::Chunk(*chunk));
                // A grouped member hands its group over: the chunk it held
                // leaves, the new one joins.
                if let Some((group, at)) = grouped {
                    if let Slot::Chunk(old) = old {
                        ns.groups.remove(&old);
                    }
                    let joined = GroupRef {
                        file: *file,
                        group,
                        member: at,
                    };
                    ns.groups.insert(*chunk, joined);
                }
                Self::unref(&mut ns.refs, old);
                *ns.refs.entry(*chunk).or_default() += 1;
                ns.next_chunk = ns.next_chunk.max(chunk.0 + 1);
            }
            Record::ParityStale {
                file,
                group,
                parity,
                stale,
            } => {
                let meta = ns.files.get_mut(file);
                let at = meta.and_then(|m| m.parity_stale.get_mut(group * m.parity + parity));
                if let Some(flag) = at {
                    *flag = *stale;
                }
            }
            Record::ChunkBirth { chunk, target, crc } => {
                let (target, crc) = (*target, *crc);
                self.chunks.insert(*chunk, ChunkMeta { target, crc });
            }
            Record::Digest { chunk, crc } => {
                if let Some(meta) = self.chunks.get_mut(chunk) {
                    meta.crc = *crc;
                }
            }
        }
    }

    /// One reference fewer to what `slot` held.
    fn unref(refs: &mut IdMap<ChunkId, u32>, slot: Slot) {
        let Slot::Chunk(c) = slot else {
            return;
        };
        if let Some(n) = refs.get_mut(&c) {
            *n -= 1;
            if *n == 0 {
                refs.remove(&c);
            }
        }
    }

    /// A standby takeover: replace the keyspace `lane` was replayed from
    /// — the chunks `owns` selects, and the namespace when `namespace` —
    /// with the replay, dropping what this state held there.
    pub(crate) fn install(
        &mut self,
        lane: MetaState,
        owns: impl Fn(ChunkId) -> bool,
        namespace: bool,
    ) {
        self.chunks.retain(|&c, _| !owns(c));
        self.chunks.extend(lane.chunks);
        self.homes.retain(|&c, _| !owns(c));
        self.homes.extend(lane.homes);
        if namespace {
            self.ns = lane.ns;
        }
    }
}

/// Metadata state rebuilt by replaying one shard's journal: its
/// [`MetaState`], plus what only replay needs — the slot bitmaps the
/// records imply and the highest epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMeta {
    /// The lane's keyspace, folded by [`MetaState::apply`].
    pub state: MetaState,
    /// benefactor → journaled leaf bitmap. Grows as records mention
    /// higher slots.
    leaf: BTreeMap<usize, LaneLeaf>,
    /// Highest placement epoch seen in an `EpochBump` record.
    pub epoch: u64,
}

impl ShardMeta {
    pub fn replay(chunk_size: u64, records: impl Iterator<Item = Record>) -> ShardMeta {
        let state = MetaState::new(chunk_size);
        let mut meta = ShardMeta {
            state,
            ..ShardMeta::default()
        };
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
            _ => {}
        }
        self.state.apply(r);
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
        for (chunk, h) in &self.state.homes {
            for (b, &s) in h.ids.iter().map(|b| b.0).zip(&h.slots) {
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

/// The per-rank journal fleet the manager always writes: one lane per
/// manager rank, each holding its rank's keyspace — a chunk-keyed record
/// lands in the lane of the chunk's owner in the manager's rank ring, the
/// namespace in lane 0 (one lane, trivially, for the paper's manager).
/// Appends bump the `store.journal_records` counter — registered lazily
/// with the rest of the HA set, and an unregistered one otherwise, so
/// knobs-off stat snapshots never see it.
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

    /// One lane per rank of a new rank set, before anything is written.
    pub fn relane(&mut self, lanes: usize) {
        assert!(self.total_records() == 0, "ranks come before records");
        *self = JournalSet::new(lanes, self.records.clone());
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

    fn payload(r: &Record) -> Vec<u8> {
        let mut out = Vec::new();
        r.encode_into(&mut out).expect("under the cap");
        out
    }

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
            Record::FileCreate {
                file: FileId(4),
                name: "/ck/é".to_string(),
            },
            Record::Fallocate {
                file: FileId(4),
                size: 5 * 4096 + 1,
                stripe: vec![BenefactorId(2), BenefactorId(0), BenefactorId(1)],
                placement: PlacementPolicy::RandomPermutation { seed: 99 },
                replicas: 1,
                group_data: 2,
                parity: 1,
                cursor: 7,
            },
            Record::Link {
                dst: FileId(5),
                src: FileId(4),
            },
            Record::Lifetime {
                file: FileId(5),
                expires_at: Some(VTime::from_nanos(123)),
            },
            Record::Lifetime {
                file: FileId(5),
                expires_at: None,
            },
            Record::ChunkBirth {
                chunk: ChunkId(11),
                target: 2,
                crc: 0xDEAD_BEEF,
            },
            Record::SlotSet {
                file: FileId(4),
                member: Member::Data(3),
                chunk: ChunkId(11),
            },
            Record::SlotSet {
                file: FileId(4),
                member: Member::Parity(1, 0),
                chunk: ChunkId(12),
            },
            Record::ParityStale {
                file: FileId(4),
                group: 1,
                parity: 0,
                stale: true,
            },
            Record::Digest {
                chunk: ChunkId(11),
                crc: 7,
            },
            Record::FileDelete { file: FileId(5) },
        ]
    }

    #[test]
    fn codec_round_trips_every_variant() {
        for r in all_variants() {
            let bytes = payload(&r);
            assert_eq!(Record::decode_payload(&bytes), Some(r));
        }
    }

    /// A name enters the log as bytes; only UTF-8 decodes, so a rotted
    /// name is a torn record, not a file no one can name.
    #[test]
    fn a_name_that_is_not_utf8_does_not_decode() {
        let file = FileId(1);
        let good = Record::FileCreate {
            file,
            name: "ab".to_string(),
        };
        let mut bytes = payload(&good);
        assert_eq!(Record::decode_payload(&bytes), Some(good));
        let last = bytes.len() - 1;
        bytes[last] = 0xFF;
        assert_eq!(Record::decode_payload(&bytes), None);
        // Framed with a checksum that matches, the scan still stops there.
        let mut raw = Vec::new();
        (bytes.len() as u32, crc64(&bytes)).put(&mut raw);
        raw.extend_from_slice(&bytes);
        let (back, stats) = Journal::scan_and_repair(&raw);
        assert_eq!((back.records(), stats.torn), (0, true));
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
        ((MAX_RECORD_BYTES + 1) as u32, 0u64).put(&mut raw);
        let (back, stats) = Journal::scan_and_repair(&raw);
        assert_eq!(back.records(), 1);
        assert!(stats.torn);
        assert_eq!(stats.truncated_bytes, 12);
    }

    #[test]
    fn the_magic_reads_nvmjrnl1() {
        assert_eq!(JOURNAL_MAGIC.to_le_bytes(), *b"NVMJRNL1");
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
        let (sb2, meta, stats) = load_image(&image, 4096).expect("clean image loads");
        assert_eq!(sb2, sb);
        assert!(!stats.torn);
        let homes = &meta.state.homes;
        assert_eq!(homes[&ChunkId(2)].ids, [BenefactorId(1)]);
        assert_eq!(homes[&ChunkId(2)].slots, [0]);
        assert!(!homes.contains_key(&ChunkId(1)), "freed chunk gone");
        meta.assert_consistent();
        // Tear the image mid-journal: the superblock still loads, the
        // tail truncates, and the replayed state is the shorter prefix.
        image.truncate(image.len() - 5);
        let (_, meta2, stats2) = load_image(&image, 4096).expect("torn image still loads");
        assert!(stats2.torn);
        assert_eq!(stats2.records, 2);
        assert!(
            meta2.state.homes.contains_key(&ChunkId(1)),
            "free was torn off"
        );
        meta2.assert_consistent();
    }

    #[test]
    fn replay_rebuilds_allocator_via_from_leaf() {
        let place = |s: usize| Record::Place {
            chunk: ChunkId(s as u64),
            benefactor: 1,
            slot: s,
        };
        let free = Record::Free {
            chunk: ChunkId(3),
            benefactor: 1,
            slot: 3,
        };
        let records = [0, 3, 64, 130].map(place).into_iter().chain([free]);
        let meta = ShardMeta::replay(4096, records);
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
