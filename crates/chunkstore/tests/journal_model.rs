//! Model-based property tests of the journal codec and its
//! scan-and-repair replay (DESIGN.md §16).
//!
//! Two families:
//!
//! 1. **Codec round-trip**: any record of any variant — including the
//!    zero-length `LeafCheckpoint`, and a `LeafCheckpoint`, a file name
//!    and a stripe list each as long as the frame cap admits — survives
//!    encode → decode exactly, and a journal of such records iterates and
//!    rescans in order with nothing truncated.
//!
//! 2. **Prefix replay**: build a journal from a valid manager history —
//!    files created, sized (replicated or erasure-coded), written (first
//!    writes with a home per replica, copy-on-write and in-place digests,
//!    data and parity members), linked, given lifetimes, flagged stale
//!    and deleted; chunks given extra homes and any one home freed, the
//!    last one included, while slots still hold the chunk —
//!    cut it at an *arbitrary byte offset* and optionally flip bits of
//!    one byte of what remains (torn tail / bit rot). Scan-and-repair
//!    must recover exactly some prefix of the appended records, the
//!    replayed [`ShardMeta`] must pass its own `assert_consistent` sweep,
//!    and its whole [`MetaState`] — files with their geometry, slots,
//!    lifetimes and stale flags, names, reference counts, cursors, chunk
//!    targets and digests, homes with their slots, and parity groups —
//!    plus per-benefactor populations and rebuilt-allocator free counts
//!    must agree with an independent model of that prefix. The model
//!    counts references and reads groups off the slots its fold leaves
//!    (`apply` derives both record by record).

use chunkstore::{
    BenefactorId, ChunkId, FileId, FileMeta, Journal, Member, MetaState, PlacementPolicy, Record,
    ShardMeta, Slot,
};
use proptest::prelude::*;
use simcore::VTime;
use std::collections::{BTreeMap, BTreeSet};

/// Slot capacity per benefactor in the prefix-replay model.
const CAP: usize = 96;
/// Benefactors the model places across.
const BENEFACTORS: usize = 3;
/// The model's chunk size.
const CHUNK: u64 = 4096;
/// Max `LeafCheckpoint` words that still fit the 64 KiB record-payload
/// cap: tag(1) + benefactor(4) + len(8) + words(4) + words*8 ≤ 65536.
const MAX_LEAF_WORDS: usize = (64 * 1024 - 17) / 8;
/// The longest name a `FileCreate` frame holds: tag(1) + file(8) +
/// len(4) + bytes.
const MAX_NAME_BYTES: usize = 64 * 1024 - 13;
/// The longest stripe a `Fallocate` frame holds: tag(1) + file(8) +
/// size(8) + placement(9) + replicas, k, m(12) + cursor(8) + count(4) +
/// 4 per benefactor.
const MAX_STRIPE: usize = (64 * 1024 - 50) / 4;

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x3000, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn member_strategy() -> impl Strategy<Value = Member> {
    prop_oneof![
        1 => (0usize..1 << 20).prop_map(Member::Data),
        1 => (0usize..1 << 20, 0usize..8).prop_map(|(g, p)| Member::Parity(g, p)),
    ]
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        4 => (any::<u64>(), 0usize..64, 0usize..4096).prop_map(|(c, b, s)| Record::Place {
            chunk: ChunkId(c),
            benefactor: b,
            slot: s,
        }),
        4 => (any::<u64>(), 0usize..64, 0usize..4096).prop_map(|(c, b, s)| Record::Free {
            chunk: ChunkId(c),
            benefactor: b,
            slot: s,
        }),
        2 => any::<u64>().prop_map(|epoch| Record::EpochBump { epoch }),
        3 => (0usize..64, proptest::collection::vec(any::<u64>(), 0..80)).prop_map(
            |(b, leaf)| Record::LeafCheckpoint {
                benefactor: b,
                len: leaf.len() * 64,
                leaf,
            }
        ),
        2 => (any::<u64>(), name_strategy()).prop_map(|(f, name)| Record::FileCreate {
            file: FileId(f),
            name,
        }),
        2 => (
            (any::<u64>(), any::<u64>()),
            proptest::collection::vec(0usize..1 << 20, 0..40),
            (any::<bool>(), any::<u64>()),
            (0usize..8, 1usize..8, 0usize..4),
            0usize..1 << 30,
        )
            .prop_map(|((f, size), stripe, (permuted, seed), (replicas, k, m), cursor)| {
                Record::Fallocate {
                    file: FileId(f),
                    size,
                    stripe: stripe.into_iter().map(BenefactorId).collect(),
                    placement: match permuted {
                        true => PlacementPolicy::RandomPermutation { seed },
                        false => PlacementPolicy::RoundRobin,
                    },
                    replicas,
                    group_data: k,
                    parity: m,
                    cursor,
                }
            }),
        1 => any::<u64>().prop_map(|f| Record::FileDelete { file: FileId(f) }),
        1 => (any::<u64>(), any::<u64>()).prop_map(|(d, s)| Record::Link {
            dst: FileId(d),
            src: FileId(s),
        }),
        1 => (any::<u64>(), any::<bool>(), any::<u64>()).prop_map(|(f, some, ns)| {
            Record::Lifetime {
                file: FileId(f),
                expires_at: some.then_some(VTime::from_nanos(ns)),
            }
        }),
        2 => (any::<u64>(), member_strategy(), any::<u64>()).prop_map(|(f, member, c)| {
            Record::SlotSet {
                file: FileId(f),
                member,
                chunk: ChunkId(c),
            }
        }),
        1 => (any::<u64>(), 0usize..1 << 20, 0usize..8, any::<bool>()).prop_map(
            |(f, group, parity, stale)| Record::ParityStale {
                file: FileId(f),
                group,
                parity,
                stale,
            }
        ),
        2 => (any::<u64>(), 0usize..8, any::<u64>()).prop_map(|(c, target, crc)| {
            Record::ChunkBirth {
                chunk: ChunkId(c),
                target,
                crc,
            }
        }),
        3 => (any::<u64>(), any::<u64>()).prop_map(|(c, crc)| Record::Digest {
            chunk: ChunkId(c),
            crc,
        }),
        // The codec's edge cases, kept in rotation: an empty bitmap…
        1 => Just(Record::LeafCheckpoint {
            benefactor: 0,
            len: 0,
            leaf: vec![],
        }),
        // …and the largest bitmap, name and stripe the frame cap admits.
        1 => Just(Record::LeafCheckpoint {
            benefactor: 1,
            len: MAX_LEAF_WORDS * 64,
            leaf: vec![0xAAAA_AAAA_AAAA_AAAA; MAX_LEAF_WORDS],
        }),
        1 => Just(Record::FileCreate {
            file: FileId(3),
            name: "é".repeat(MAX_NAME_BYTES / 2) + "x",
        }),
        1 => Just(Record::Fallocate {
            file: FileId(3),
            size: u64::MAX,
            stripe: (0..MAX_STRIPE).map(BenefactorId).collect(),
            placement: PlacementPolicy::RandomPermutation { seed: u64::MAX },
            replicas: 1,
            group_data: 4,
            parity: 2,
            cursor: usize::MAX >> 1,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn codec_round_trips_arbitrary_records(
        recs in proptest::collection::vec(record_strategy(), 1..24)
    ) {
        let mut j = Journal::new();
        for r in &recs {
            let mut bytes = Vec::new();
            r.encode_into(&mut bytes).expect("under the cap");
            let decoded = Record::decode_payload(&bytes);
            prop_assert_eq!(decoded.as_ref(), Some(r));
            j.append(r);
        }
        prop_assert_eq!(j.records(), recs.len() as u64);
        prop_assert_eq!(j.iter().collect::<Vec<_>>(), recs.clone());
        // A clean rescan recovers everything and truncates nothing.
        let (back, stats) = Journal::scan_and_repair(j.bytes());
        prop_assert_eq!(back.records(), recs.len() as u64);
        prop_assert!(!stats.torn);
        prop_assert_eq!(stats.truncated_bytes, 0);
    }
}

/// The edge cases are exactly at the cap: one byte more and the frame
/// cannot hold them.
#[test]
fn the_edge_cases_sit_at_the_frame_cap() {
    let name = "é".repeat(MAX_NAME_BYTES / 2) + "x";
    let len = |r: Record| r.encode_into(&mut Vec::new());
    let create = |name| Record::FileCreate {
        file: FileId(0),
        name,
    };
    assert_eq!(len(create(name.clone())), Ok(64 * 1024));
    assert_eq!(len(create(name + "x")), Err(64 * 1024 + 1));
    let stripe = |n| Record::Fallocate {
        file: FileId(0),
        size: 0,
        stripe: vec![BenefactorId(0); n],
        placement: PlacementPolicy::RoundRobin,
        replicas: 1,
        group_data: 1,
        parity: 0,
        cursor: 0,
    };
    assert!(len(stripe(MAX_STRIPE)).is_ok());
    assert!(len(stripe(MAX_STRIPE + 1)).is_err());
}

/// One step of a *valid* manager history: what a live manager journals.
/// Picks index whatever exists (`% len`); a step with nothing to act on
/// journals nothing.
#[derive(Clone, Debug)]
enum Op {
    /// Create the next file.
    Create { multibyte: bool },
    /// Size an unsized file: `slots` data slots, `replicas` copies of each
    /// (plain files) or RS(2, `m`) groups.
    Fallocate {
        pick: usize,
        slots: usize,
        replicas: usize,
        m: usize,
    },
    /// Write data slot `idx` of a file: a first write or a copy-on-write
    /// births a chunk and installs it with a home per replica, an
    /// in-place one records a digest.
    Write { pick: usize, idx: usize, crc: u64 },
    /// The same for parity member `member` (group-major).
    WriteParity {
        pick: usize,
        member: usize,
        crc: u64,
    },
    /// Flag or clear a parity member stale.
    Stale {
        pick: usize,
        member: usize,
        stale: bool,
    },
    /// Link file `src` onto file `dst` (possibly the same file).
    Link { dst: usize, src: usize },
    /// Delete a file, freeing what no other slot holds.
    Delete { pick: usize },
    /// Set or clear a file's lifetime.
    Lifetime { pick: usize, at: Option<u64> },
    /// Bump the epoch and journal the revocation.
    Revoke,
    /// Place one more copy of a chunk on benefactor `pick % BENEFACTORS`,
    /// lowest free slot — a repair's new home. With `held`, the chunk is
    /// the `chunk % held`-th one a slot holds; otherwise chunk id `chunk`,
    /// held, freed or never born: the log alone allows any placement.
    Place { chunk: u64, held: bool, pick: usize },
    /// Free the `index % homes`-th home of any chunk — a dead copy
    /// dropped, a redundant one reconciled away, or the last one.
    Free { index: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<bool>().prop_map(|multibyte| Op::Create { multibyte }),
        3 => (any::<usize>(), 1usize..6, 1..BENEFACTORS + 1, 0usize..3).prop_map(
            |(pick, slots, replicas, m)| Op::Fallocate {
                pick,
                slots,
                replicas,
                m,
            }
        ),
        8 => (any::<usize>(), any::<usize>(), any::<u64>()).prop_map(|(pick, idx, crc)| {
            Op::Write { pick, idx, crc }
        }),
        2 => (any::<usize>(), any::<usize>(), any::<u64>()).prop_map(|(pick, member, crc)| {
            Op::WriteParity { pick, member, crc }
        }),
        1 => (any::<usize>(), any::<usize>(), any::<bool>()).prop_map(|(pick, member, stale)| {
            Op::Stale { pick, member, stale }
        }),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(dst, src)| Op::Link { dst, src }),
        2 => any::<usize>().prop_map(|pick| Op::Delete { pick }),
        1 => (any::<usize>(), any::<bool>(), any::<u64>()).prop_map(|(pick, some, t)| {
            Op::Lifetime {
                pick,
                at: some.then_some(t),
            }
        }),
        1 => Just(Op::Revoke),
        3 => (0u64..64, any::<bool>(), any::<usize>()).prop_map(|(chunk, held, pick)| {
            Op::Place { chunk, held, pick }
        }),
        3 => any::<usize>().prop_map(|index| Op::Free { index }),
    ]
}

/// A slot as the history generator tracks it.
#[derive(Clone, Copy, PartialEq)]
enum S {
    Empty,
    Hole,
    Chunk(u64),
}

/// A live file as the history generator tracks it.
#[derive(Clone)]
struct GenFile {
    id: u64,
    sized: bool,
    replicas: usize,
    slots: Vec<S>,
    parity: Vec<S>,
    m: usize,
}

/// Turns an op history into the record sequence a manager would journal.
#[derive(Default)]
struct History {
    free: Vec<BTreeSet<usize>>,
    files: Vec<GenFile>,
    next_file: u64,
    next_chunk: u64,
    cursor: usize,
    /// Every chunk's homes, (benefactor, slot) in place order.
    homes: BTreeMap<u64, Vec<(usize, usize)>>,
    refs: BTreeMap<u64, u32>,
    epoch: u64,
    out: Vec<Record>,
}

impl History {
    fn records_of(ops: &[Op]) -> Vec<Record> {
        let mut h = History {
            free: (0..BENEFACTORS).map(|_| (0..CAP).collect()).collect(),
            ..History::default()
        };
        for op in ops {
            h.step(op);
        }
        h.out
    }

    fn step(&mut self, op: &Op) {
        let n = self.files.len();
        match *op {
            Op::Create { multibyte } => {
                let id = self.next_file;
                self.next_file += 1;
                let name = format!("/{}{id}", if multibyte { "fé" } else { "f" });
                self.files.push(GenFile {
                    id,
                    sized: false,
                    replicas: 1,
                    slots: Vec::new(),
                    parity: Vec::new(),
                    m: 0,
                });
                self.out.push(Record::FileCreate {
                    file: FileId(id),
                    name,
                });
            }
            Op::Fallocate {
                pick,
                slots,
                replicas,
                m,
            } => {
                let unsized_files: Vec<usize> = (0..n).filter(|&i| !self.files[i].sized).collect();
                let Some(&i) = unsized_files.get(pick % unsized_files.len().max(1)) else {
                    return;
                };
                let f = &mut self.files[i];
                if !f.slots.is_empty() {
                    return; // a link already gave it slots: not fallocatable
                }
                // Replication and parity groups do not compose.
                let (k, replicas) = if m > 0 { (2, 1) } else { (1, replicas) };
                f.sized = true;
                f.replicas = replicas;
                f.slots = vec![S::Empty; slots];
                f.parity = vec![S::Empty; slots.div_ceil(k) * m];
                f.m = m;
                self.cursor += 1;
                let stripe = (0..BENEFACTORS)
                    .map(|b| BenefactorId((b + self.cursor) % BENEFACTORS))
                    .collect();
                self.out.push(Record::Fallocate {
                    file: FileId(f.id),
                    size: slots as u64 * CHUNK - (slots as u64 % 2),
                    stripe,
                    placement: PlacementPolicy::RoundRobin,
                    replicas,
                    group_data: k,
                    parity: m,
                    cursor: self.cursor,
                });
            }
            Op::Write { pick, idx, crc } => {
                let Some(i) = (n > 0).then(|| pick % n) else {
                    return;
                };
                let len = self.files[i].slots.len();
                if len > 0 {
                    self.write(i, Member::Data(idx % len), crc);
                }
            }
            Op::WriteParity { pick, member, crc } => {
                let Some(i) = (n > 0).then(|| pick % n) else {
                    return;
                };
                let (len, m) = (self.files[i].parity.len(), self.files[i].m);
                if len > 0 {
                    let at = member % len;
                    self.write(i, Member::Parity(at / m, at % m), crc);
                }
            }
            Op::Stale {
                pick,
                member,
                stale,
            } => {
                let Some(f) = (n > 0).then(|| &self.files[pick % n]) else {
                    return;
                };
                if !f.parity.is_empty() {
                    let at = member % f.parity.len();
                    self.out.push(Record::ParityStale {
                        file: FileId(f.id),
                        group: at / f.m,
                        parity: at % f.m,
                        stale,
                    });
                }
            }
            Op::Link { dst, src } => {
                if n == 0 {
                    return;
                }
                let (dst, src) = (dst % n, src % n);
                let appended: Vec<S> = (self.files[src].slots.iter())
                    .map(|&s| match s {
                        S::Chunk(c) => {
                            *self.refs.get_mut(&c).unwrap() += 1;
                            s
                        }
                        S::Empty | S::Hole => S::Hole,
                    })
                    .collect();
                self.files[dst].slots.extend(appended);
                let (dst, src) = (self.files[dst].id, self.files[src].id);
                self.out.push(Record::Link {
                    dst: FileId(dst),
                    src: FileId(src),
                });
            }
            Op::Delete { pick } => {
                if n == 0 {
                    return;
                }
                let f = self.files.remove(pick % n);
                self.out.push(Record::FileDelete { file: FileId(f.id) });
                for s in f.slots.iter().chain(&f.parity) {
                    if let S::Chunk(c) = *s {
                        self.unref(c);
                    }
                }
            }
            Op::Lifetime { pick, at } => {
                if n > 0 {
                    self.out.push(Record::Lifetime {
                        file: FileId(self.files[pick % n].id),
                        expires_at: at.map(VTime::from_nanos),
                    });
                }
            }
            Op::Revoke => {
                self.epoch += 1;
                self.out.push(Record::EpochBump { epoch: self.epoch });
            }
            Op::Place { chunk, held, pick } => {
                let held_ids = self.refs.keys();
                let chunk = match (held, held_ids.len()) {
                    (true, len @ 1..) => *self.refs.keys().nth(chunk as usize % len).unwrap(),
                    _ => chunk,
                };
                self.place(chunk, pick % BENEFACTORS);
            }
            Op::Free { index } => {
                let homes = self
                    .homes
                    .iter()
                    .flat_map(|(&c, h)| h.iter().map(move |&e| (c, e)));
                let Some((chunk, home)) = homes.clone().nth(index % homes.count().max(1)) else {
                    return;
                };
                self.free_home(chunk, home);
            }
        }
    }

    /// Write member `at` of file `i`: a digest for a chunk only it holds,
    /// else a birth, the slot, a home per replica on consecutive
    /// benefactors — and the old chunk's release.
    fn write(&mut self, i: usize, at: Member, crc: u64) {
        let f = &self.files[i];
        let old = match at {
            Member::Data(idx) => f.slots[idx],
            Member::Parity(g, p) => f.parity[g * f.m + p],
        };
        if let S::Chunk(c) = old {
            if self.refs[&c] == 1 {
                let chunk = ChunkId(c);
                self.out.push(Record::Digest { chunk, crc });
                return;
            }
        }
        let c = self.next_chunk;
        let target = f.replicas;
        let homes: Vec<usize> = (0..target)
            .map(|r| (c as usize + r) % BENEFACTORS)
            .collect();
        if homes.iter().any(|&b| self.free[b].is_empty()) {
            return; // a benefactor is full — a live manager would ENOSPC
        }
        self.next_chunk += 1;
        let (chunk, file) = (ChunkId(c), FileId(f.id));
        self.out.push(Record::ChunkBirth { chunk, target, crc });
        self.out.push(Record::SlotSet {
            file,
            member: at,
            chunk,
        });
        for b in homes {
            self.place(c, b);
        }
        self.refs.insert(c, 1);
        let f = &mut self.files[i];
        match at {
            Member::Data(idx) => f.slots[idx] = S::Chunk(c),
            Member::Parity(g, p) => f.parity[g * f.m + p] = S::Chunk(c),
        }
        if let S::Chunk(old) = old {
            self.unref(old);
        }
    }

    /// A copy of `c` in the lowest free slot of benefactor `b`, if any.
    fn place(&mut self, c: u64, b: usize) {
        let Some(slot) = self.free[b].pop_first() else {
            return; // benefactor full — a live manager would ENOSPC
        };
        self.homes.entry(c).or_default().push((b, slot));
        self.out.push(Record::Place {
            chunk: ChunkId(c),
            benefactor: b,
            slot,
        });
    }

    /// `c`'s copy at `home` is no longer authoritative.
    fn free_home(&mut self, c: u64, home: (usize, usize)) {
        let h = self.homes.get_mut(&c).unwrap();
        h.retain(|&e| e != home);
        if h.is_empty() {
            self.homes.remove(&c);
        }
        let (benefactor, slot) = home;
        self.free[benefactor].insert(slot);
        self.out.push(Record::Free {
            chunk: ChunkId(c),
            benefactor,
            slot,
        });
    }

    /// One reference fewer; the last frees every home the chunk has left,
    /// primary first.
    fn unref(&mut self, c: u64) {
        let n = self.refs.get_mut(&c).unwrap();
        *n -= 1;
        if *n == 0 {
            self.refs.remove(&c);
            while let Some(&home) = self.homes.get(&c).and_then(|h| h.first()) {
                self.free_home(c, home);
            }
        }
    }
}

/// A file as the model keeps one.
#[derive(Clone, Debug, PartialEq)]
struct ModelFile {
    name: String,
    size: u64,
    stripe: Vec<usize>,
    placement: PlacementPolicy,
    replicas: usize,
    k: usize,
    m: usize,
    encoded: usize,
    slots: Vec<Slot>,
    parity: Vec<Slot>,
    stale: Vec<bool>,
    expires: Option<VTime>,
}

/// The whole manager state as the model keeps it, every map ordered.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model {
    files: BTreeMap<u64, ModelFile>,
    names: BTreeMap<String, u64>,
    refs: BTreeMap<u64, u32>,
    cursors: (u64, u64, usize),
    chunks: BTreeMap<u64, (usize, u64)>,
    homes: BTreeMap<u64, Vec<(usize, usize)>>,
    groups: BTreeMap<u64, (u64, usize, usize)>,
}

impl Model {
    /// The model's own fold of a record prefix.
    fn of(records: &[Record]) -> Model {
        let mut m = Model::default();
        for rec in records {
            m.apply(rec);
        }
        // References are counted, not folded: every slot of every file.
        // So are groups: a chunk in a data slot of a file's encoded extent
        // or in one of its parity slots is that member of that group.
        for (&id, f) in &m.files {
            for s in f.slots.iter().chain(&f.parity) {
                if let Slot::Chunk(c) = s {
                    *m.refs.entry(c.0).or_default() += 1;
                }
            }
            if f.m == 0 {
                continue;
            }
            let data =
                (f.slots.iter().enumerate().take(f.encoded)).map(|(i, s)| (s, i / f.k, i % f.k));
            let parity = (f.parity.iter().enumerate()).map(|(i, s)| (s, i / f.m, f.k + i % f.m));
            for (s, group, member) in data.chain(parity) {
                if let Slot::Chunk(c) = s {
                    m.groups.insert(c.0, (id, group, member));
                }
            }
        }
        m
    }

    fn apply(&mut self, rec: &Record) {
        match rec {
            Record::Place {
                chunk,
                benefactor,
                slot,
            } => self
                .homes
                .entry(chunk.0)
                .or_default()
                .push((*benefactor, *slot)),
            Record::Free {
                chunk,
                benefactor,
                slot,
            } => {
                if let Some(h) = self.homes.get_mut(&chunk.0) {
                    h.retain(|&e| e != (*benefactor, *slot));
                    if h.is_empty() {
                        self.homes.remove(&chunk.0);
                        self.chunks.remove(&chunk.0);
                    }
                }
            }
            Record::EpochBump { .. } | Record::LeafCheckpoint { .. } => {}
            Record::FileCreate { file, name } => {
                let f = ModelFile {
                    name: name.clone(),
                    size: 0,
                    stripe: vec![],
                    placement: PlacementPolicy::RoundRobin,
                    replicas: 1,
                    k: 1,
                    m: 0,
                    encoded: 0,
                    slots: vec![],
                    parity: vec![],
                    stale: vec![],
                    expires: None,
                };
                self.files.insert(file.0, f);
                self.names.insert(name.clone(), file.0);
                self.cursors.0 = self.cursors.0.max(file.0 + 1);
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
                self.cursors.2 = *cursor;
                let f = self.files.get_mut(&file.0).unwrap();
                let n = size.div_ceil(CHUNK) as usize;
                let p = n.div_ceil(*group_data) * parity;
                f.size = *size;
                f.stripe = stripe.iter().map(|b| b.0).collect();
                f.placement = *placement;
                (f.replicas, f.k, f.m, f.encoded) = (*replicas, *group_data, *parity, n);
                f.slots = vec![Slot::Unmaterialized; n];
                f.parity = vec![Slot::Unmaterialized; p];
                f.stale = vec![false; p];
            }
            Record::FileDelete { file } => {
                let f = self.files.remove(&file.0).unwrap();
                self.names.remove(&f.name);
            }
            Record::Link { dst, src } => {
                let src = self.files[&src.0].clone();
                let dst = self.files.get_mut(&dst.0).unwrap();
                dst.size = dst.slots.len() as u64 * CHUNK + src.size;
                dst.slots.extend(src.slots.iter().map(|s| match s {
                    Slot::Chunk(_) => *s,
                    _ => Slot::Hole,
                }));
            }
            Record::Lifetime { file, expires_at } => {
                self.files.get_mut(&file.0).unwrap().expires = *expires_at;
            }
            Record::SlotSet {
                file,
                member,
                chunk,
            } => {
                let f = self.files.get_mut(&file.0).unwrap();
                match *member {
                    Member::Data(idx) => f.slots[idx] = Slot::Chunk(*chunk),
                    Member::Parity(g, p) => {
                        f.parity[g * f.m + p] = Slot::Chunk(*chunk);
                        f.stale[g * f.m + p] = false;
                    }
                }
                self.cursors.1 = self.cursors.1.max(chunk.0 + 1);
            }
            Record::ParityStale {
                file,
                group,
                parity,
                stale,
            } => {
                let f = self.files.get_mut(&file.0).unwrap();
                f.stale[group * f.m + parity] = *stale;
            }
            Record::ChunkBirth { chunk, target, crc } => {
                self.chunks.insert(chunk.0, (*target, *crc));
            }
            Record::Digest { chunk, crc } => {
                // A chunk whose last home was freed has no digest to move.
                if let Some((_, digest)) = self.chunks.get_mut(&chunk.0) {
                    *digest = *crc;
                }
            }
        }
    }

    /// The replayed state, seen as the model sees it.
    fn view(s: &MetaState) -> Model {
        let file = |f: &FileMeta| ModelFile {
            name: f.name.clone(),
            size: f.size,
            stripe: f.stripe.iter().map(|b| b.0).collect(),
            placement: f.placement,
            replicas: f.replicas,
            k: f.group_data,
            m: f.parity,
            encoded: f.encoded_slots,
            slots: f.slots.clone(),
            parity: f.parity_slots.clone(),
            stale: f.parity_stale.clone(),
            expires: f.expires_at,
        };
        let ns = &s.ns;
        Model {
            files: ns.files.iter().map(|(id, f)| (id.0, file(f))).collect(),
            names: ns.by_name.iter().map(|(n, id)| (n.clone(), id.0)).collect(),
            refs: ns.refs.iter().map(|(c, &n)| (c.0, n)).collect(),
            cursors: (ns.next_file, ns.next_chunk, ns.stripe_cursor),
            chunks: (s.chunks.iter())
                .map(|(c, m)| (c.0, (m.target, m.crc)))
                .collect(),
            homes: (s.homes.iter())
                .map(|(c, h)| {
                    let ids = h.ids.iter().map(|b| b.0);
                    (c.0, ids.zip(h.slots.iter().copied()).collect())
                })
                .collect(),
            groups: (ns.groups.iter())
                .map(|(c, g)| (c.0, (g.file.0, g.group, g.member)))
                .collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_prefix_replays_to_consistent_state(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        cut_seed in any::<usize>(),
        rot in prop_oneof![
            1 => Just(None),
            1 => (any::<usize>(), 0u8..255).prop_map(|(at, m)| Some((at, m + 1))),
        ],
    ) {
        let records = History::records_of(&ops);
        let mut j = Journal::new();
        for r in &records {
            j.append(r);
        }
        // Tear the log at an arbitrary byte offset…
        let cut = cut_seed % (j.byte_len() + 1);
        let mut raw = j.bytes()[..cut].to_vec();
        // …and optionally flip bits of one byte of what survived.
        if let Some((at, mask)) = rot {
            if !raw.is_empty() {
                let at = at % raw.len();
                raw[at] ^= mask;
            }
        }
        let (back, stats) = Journal::scan_and_repair(&raw);
        // The scanner recovers a clean *prefix*: CRC-64 catches any
        // single-byte rot, so recovered records are exactly the first
        // `stats.records` appended ones.
        prop_assert!(stats.records <= records.len() as u64);
        prop_assert_eq!(back.records(), stats.records);
        let r = stats.records as usize;
        prop_assert_eq!(
            back.iter().collect::<Vec<_>>(),
            records[..r].to_vec(),
            "recovered log is a strict prefix"
        );
        // Replay is internally consistent whatever the cut point was.
        let meta = ShardMeta::replay(CHUNK, back.iter());
        meta.assert_consistent();
        // And agrees, as a whole, with an independent model of the prefix.
        prop_assert_eq!(Model::view(&meta.state), Model::of(&records[..r]), "state diverged");
        let mut alloc: Vec<BTreeSet<usize>> =
            (0..BENEFACTORS).map(|_| BTreeSet::new()).collect();
        let mut epoch = 0u64;
        for rec in &records[..r] {
            match rec {
                Record::Place { benefactor, slot, .. } => {
                    alloc[*benefactor].insert(*slot);
                }
                Record::Free { benefactor, slot, .. } => {
                    alloc[*benefactor].remove(slot);
                }
                Record::EpochBump { epoch: e } => epoch = epoch.max(*e),
                _ => {}
            }
        }
        prop_assert_eq!(meta.epoch, epoch);
        for (b, set) in alloc.iter().enumerate() {
            prop_assert_eq!(
                meta.allocated_on(b),
                set.len(),
                "benefactor {} population diverged", b
            );
            // The rebuilt allocator (BitAlloc::from_leaf) sees the same
            // free count the model does.
            let a = meta.rebuild_alloc(b, CAP);
            a.assert_consistent();
            prop_assert_eq!(a.free_count(), CAP - set.len());
        }
    }
}
